import argparse
import csv
import ctypes
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import threading
import types
import typing

import numpy as np
import pytest

from thinshell import cli, gibbs1d, hamiltonians, projection, sampler, sumdensity

BOUNDS_HEADER = "n,k,t,c,alpha,kl,tv,kl_bound,tv_from_kl,df_bound,C_used,pass_kl,pass_tv"

# sha256 of each subcommand's --help at 80 columns; deriving the flags from
# ExperimentConfig must not change a byte of it
HELP_SHA256 = {
    "analyze-f": "ed37c26d80e5f80d09418014bb902f94266bb0bb42479a75b55c4e53a3042acb",
    "solve-c": "1f5c8945969546a72a3c17b88edbeb61c78f539726e49b6d5395e73d9667cedc",
    "wn": "6dd65f68c539f514d240c7365cdd34a2b76a70475d4fe69e7569fee95db8d999",
    "clt-scan": "ff04456385daefbe72046dbd5e7b97df75a0da1da98c4705bcf366680ca2127c",
    "bounds": "c9456160dbb3b38a92c2f1b62f17fbe4220f2c00531c4fc8bced5cb58f77c5c8",
    "converse": "cd12a53306d35e4577e047645ec1aed6c4c703f1d907658aeff4ce013d82c823",
    "ensembles": "c88073278922eb15af2e2e34f8242c2f51f1115e7e172ce8e6483c1abd9bf4b2",
    "sample": "d491b1debebf035dde5399aab271d25777ff69b8fbc4260c405fc638473da163",
    "mixture": "43bcf5eb8e8892c3da74a173cb6fe2296556982735c156ea0413cee409ae06bc",
}

# sha256 of the batch file of `sample --kind quartic_perturbed --epsilon 1
# --method rejection --count 99 --seed 4` per n
QUARTIC_BATCH_SHA256 = {
    7: "d3594445fe990b07af200cd8806598d3385dfab6f20820073af3a236f5881214",
    300: "0fe8209bcda41216fd715a326f0ccd1a65a6d584c8706df7862e72b6164b9f37",
}

# the options block every subcommand prints, for a readable diff
OPTIONS_HELP = """options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value config file
  --kind KIND
  --p P
  --epsilon EPSILON
  --support SUPPORT
  --t T
  --n N
  --n-list N_LIST
  --k-list K_LIST
  --alpha-list ALPHA_LIST
  --clt-n-list CLT_N_LIST
  --c-override C_OVERRIDE
  --grid-size GRID_SIZE
  --grid-extent GRID_EXTENT
  --count COUNT
  --canonical-count CANONICAL_COUNT
  --delta DELTA
  --method METHOD
  --testfn TESTFN
  --eps EPS
  --k-frac K_FRAC
  --mixture-t-list MIXTURE_T_LIST
  --mixture-weights MIXTURE_WEIGHTS
  --seed SEED
  --out OUT
  --strict
"""


def run(args):
    return cli.main(args)


@pytest.fixture()
def lin_config(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "kind=linear_half\n"
        "t=1\n"
        "n_list=50,100\n"
        "k_list=1,3\n"
        "# comment lines are fine\n"
        "seed=7\n",
        encoding="utf-8",
    )
    return str(path)


class TestConfig:
    def test_file_parsing(self, lin_config):
        values = cli.parse_config_file(lin_config)
        assert values["kind"] == "linear_half"
        assert values["n_list"] == (50, 100)
        assert values["seed"] == 7

    def test_unknown_key_diagnostic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("frobnicate=1\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=r"bad.txt:1.*frobnicate"):
            cli.parse_config_file(str(path))

    def test_bad_value_diagnostic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n_list=50,many\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=r"bad.txt:1"):
            cli.parse_config_file(str(path))

    def test_k_not_below_n_rejected(self, capsys):
        code = run(["bounds", "--n-list", "10", "--k-list", "10"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,key",
        [
            ("--grid-extent", "grid_extent"),
            ("--c-override", "c_override"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_bounds_number_rejected(self, option, key, value, capsys):
        code = run(["bounds", "--kind", "quadratic", "--n-list", "50", "--k-list", "1", option, value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and key in captured.err

    @pytest.mark.parametrize("value", ["nan", "0"])
    def test_bad_shell_width_rejected(self, value, capsys):
        code = run(["ensembles", "--kind", "quartic_perturbed", "--epsilon", "1", "--n-list", "20",
                    "--count", "100", "--delta", value])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,key",
        [
            (["--count", "0"], "count"),
            (["--count", "1"], "count"),
            (["--canonical-count", "0"], "canonical_count"),
            (["--canonical-count", "1"], "canonical_count"),
            (["--testfn", "bogus"], "testfn"),
        ],
    )
    def test_bad_ensemble_setting_rejected(self, args, key, capsys):
        code = run(["ensembles", "--kind", "linear_half", "--n-list", "50", "--count", "200"] + args)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and key in captured.err

    def test_bad_sample_method_rejected(self, capsys):
        assert run(["sample", "--kind", "quadratic", "--n", "3", "--count", "100", "--method", "bogus"]) == 2
        assert "method" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "0,inf"])
    def test_non_finite_tilt_rejected(self, value, capsys):
        code = run(["bounds", "--kind", "quadratic", "--n-list", "50", "--k-list", "1", "--alpha-list", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "alpha_list" in captured.err

    @pytest.mark.parametrize("args", [["--k-list", "3", "--alpha-list", "0.2"], ["--k-list", "1,3", "--alpha-list", ""]])
    def test_bounds_sweep_without_cells_rejected(self, args, capsys):
        """A nonzero alpha pairs with k = 1 only, so these sweeps would print
        just the header; they are a config error naming both lists."""
        code = run(["bounds", "--kind", "quadratic", "--n-list", "50", "--c-override", "2", "--strict"] + args)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert "alpha_list" in captured.err and "k_list" in captured.err

    @pytest.mark.parametrize("word,value", [("1", True), ("TRUE", True), ("Yes", True),
                                            ("0", False), ("false", False), ("NO", False)])
    def test_bool_words(self, tmp_path, word, value):
        path = tmp_path / "cfg.txt"
        path.write_text(f"strict={word}\n", encoding="utf-8")
        assert cli.parse_config_file(str(path)) == {"strict": value}

    @pytest.mark.parametrize("word", ["on", "ture", "", "2"])
    def test_bool_typo_rejected(self, tmp_path, word, capsys):
        """A word that is not 1/true/yes or 0/false/no is refused, not read
        as false (which would let a --strict CI config pass failing bounds)."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"strict={word}\n", encoding="utf-8")
        assert run(["bounds", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and "'strict'" in captured.err

    @pytest.mark.parametrize("value", [",", "0", "8,-1"])
    def test_bad_clt_n_list_rejected(self, value, capsys):
        assert run(["clt-scan", "--kind", "quadratic", "--clt-n-list", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and "clt_n_list" in captured.err

    def test_grid_size_below_two_rejected(self, capsys):
        assert run(["wn", "--kind", "quadratic", "--n", "4", "--grid-size", "1"]) == 2
        assert "grid_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,key",
        [
            (["--eps", "nan"], "eps"),
            (["--eps", "inf"], "eps"),
            (["--eps", "0"], "eps"),
            (["--eps", "-1"], "eps"),
            (["--k-frac", "nan"], "k_frac"),
            (["--k-frac", "0"], "k_frac"),
            (["--k-frac", "1"], "k_frac"),
            (["--k-frac", "1.5"], "k_frac"),
        ],
    )
    def test_bad_converse_setting_rejected(self, args, key, capsys):
        code = run(["converse", "--kind", "quadratic", "--n-list", "20"] + args)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and key in captured.err

    @pytest.mark.parametrize("k_frac,n", [("0.9", 2), ("0.75", 2), ("0.01", 1)])
    def test_converse_checks_its_derived_k(self, k_frac, n, capsys):
        """converse pairs each n with k = max(1, round(k_frac n)); a pair
        with k >= n is a config error naming k_frac and n."""
        code = run(["converse", "--kind", "quadratic", "--n-list", f"{n},20", "--k-list", "1", "--k-frac", k_frac])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert f"k_frac={float(k_frac)!r}" in captured.err and f"n={n};" in captured.err

    def test_converse_ignores_k_list(self, tmp_path):
        """k_list plays no part in converse, so a k_list entry above some n
        does not refuse the run (the default k_list entry 5 lies above
        n = 4)."""
        out = tmp_path / "converse.csv"
        assert run(["converse", "--kind", "quadratic", "--n-list", "4,20", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].startswith("4,2,") and rows[2].startswith("20,10,")

    @pytest.mark.parametrize("args", [["--n", "3", "--k-list", "5"], ["--n-list", "4,200", "--k-list", "4"]])
    def test_mixture_checks_its_pair(self, args, capsys):
        """mixture runs n (else the first of n_list) with the first of
        k_list; a pair with k >= n is a config error naming both."""
        code = run(["mixture", "--kind", "quadratic"] + args)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert "n=" in captured.err and "k_list" in captured.err

    def test_mixture_ignores_unused_pairs(self, tmp_path):
        """Only the pair mixture runs is checked: a k_list entry past the
        rest of n_list does not refuse it."""
        out = tmp_path / "mixture.csv"
        assert run(["mixture", "--kind", "quadratic", "--n", "20", "--n-list", "2", "--k-list", "1,5",
                    "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("20,1,")

    @pytest.mark.parametrize(
        "args,key",
        [
            (["--mixture-weights", "nan,0.5"], "mixture_weights"),
            (["--mixture-weights", "inf,0"], "mixture_weights"),
            (["--mixture-weights=-0.5,1.5"], "mixture_weights"),
            (["--mixture-weights", "0.6,0.6"], "mixture_weights"),
            (["--mixture-t-list", "nan,1"], "mixture_t_list"),
            (["--mixture-t-list", "0,1"], "mixture_t_list"),
            (["--mixture-t-list=-1,1"], "mixture_t_list"),
        ],
    )
    def test_bad_mixture_setting_rejected(self, args, key, capsys):
        code = run(["mixture", "--kind", "quadratic", "--n", "100", "--k-list", "2",
                    "--mixture-t-list", "0.5,1", "--mixture-weights", "0.5,0.5"] + args)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and key in captured.err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["bounds", "--config", "{tmp}/missing.cfg"], "cannot read config"),
            (["bounds", "--kind", "quadratic", "--n-list", ","], "n_list and k_list must be nonempty"),
            (["mixture", "--kind", "quadratic", "--mixture-t-list", "1", "--mixture-weights", "0.5,0.5"],
             "mixture_t_list and mixture_weights differ in length"),
        ],
        ids=["missing_file", "empty_n_list", "mixture_lengths"],
    )
    def test_unusable_config_rejected(self, tmp_path, args, message, capsys):
        assert run([arg.format(tmp=tmp_path) for arg in args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and message in captured.err

    def test_cli_overrides_file(self, lin_config, tmp_path, capsys):
        out = tmp_path / "row.csv"
        assert run(["solve-c", "--config", lin_config, "--kind", "quadratic", "--t", "0.5", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "t,c,Z,mu,sigma2,m"
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1.0, rel=1e-9)  # quadratic at t=1/2


class TestDeclaration:
    """Each option is declared once, as an ExperimentConfig field."""

    @pytest.mark.parametrize("name", list(HELP_SHA256))
    def test_help_unchanged(self, name, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([name, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert text.endswith("\n\n" + OPTIONS_HELP)
        assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[name]

    def test_shared_flags_parse_as_per_subcommand_flags(self):
        """The config flags sit on one parent parser that every subcommand
        takes; each subcommand parses each of them, and no flag, to the same
        Namespace as a parser that adds every flag to every subcommand."""

        def per_subcommand_parser():
            parser = argparse.ArgumentParser(prog="thinshell")
            sub = parser.add_subparsers(dest="subcommand", required=True)
            for name in cli._SUBCOMMANDS:
                p = sub.add_parser(name)
                p.add_argument("--config")
                for key in cli._CONVERTERS:
                    flag = "--" + key.replace("_", "-")
                    if cli._HINTS[key] is bool:
                        p.add_argument(flag, action="store_true")
                    else:
                        p.add_argument(flag)
            return parser

        shared, reference = cli._parser(), per_subcommand_parser()
        flags = [[], ["--config", "x.cfg"]] + [["--" + key.replace("_", "-")] + ([] if cli._HINTS[key] is bool else ["7"])
                                              for key in cli._CONVERTERS]
        for name in cli._SUBCOMMANDS:
            for argv in flags:
                assert vars(shared.parse_args([name, *argv])) == vars(reference.parse_args([name, *argv])), argv
        everything = [arg for argv in flags for arg in argv]
        assert vars(shared.parse_args(["bounds", *everything])) == vars(reference.parse_args(["bounds", *everything]))

    def test_every_field_has_a_flag_and_a_config_key(self, tmp_path):
        """Each field parses from a config line and from its flag in every
        subcommand, to the same value."""
        samples = {int: "3", float: "0.5", str: "x", bool: "true",
                   tuple[int, ...]: "2,3", tuple[float, ...]: "0.25,0.75"}
        hints = typing.get_type_hints(cli.ExperimentConfig)
        names = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
        texts = {}
        for name in names:
            hint = hints[name]
            if type(None) in typing.get_args(hint):
                (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
            texts[name] = samples[hint]
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{name}={texts[name]}\n" for name in names), encoding="utf-8")
        from_file = cli.parse_config_file(str(path))
        assert list(from_file) == names

        subparsers = next(a for a in cli._parser()._actions if a.dest == "subcommand")
        for sub, parser in subparsers.choices.items():
            for name in names:
                flag = "--" + name.replace("_", "-")
                argv = [flag] if hints[name] is bool else [flag, texts[name]]
                value = getattr(parser.parse_args(argv), name)
                if isinstance(value, str):
                    value = cli._convert(name, value, "command line")
                assert value == from_file[name], (sub, flag)


class TestSubcommands:
    def test_solve_c_row(self, tmp_path):
        out = tmp_path / "solve.csv"
        assert run(["solve-c", "--kind", "linear_half", "--t", "1", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "t,c,Z,mu,sigma2,m"
        vals = [float(v) for v in row.split(",")]
        assert vals[1] == pytest.approx(1.0, rel=1e-9)

    def test_analyze_f(self, capsys):
        assert run(["analyze-f", "--kind", "power", "--p", "2", "--support", "symmetric"]) == 0
        text = capsys.readouterr().out
        assert "overall=true" in text and "ADMISSIBLE" in text

    def test_analyze_f_without_origin_exponent(self, capsys):
        """power(40) is increasing with a tail slope, but no q of the grid
        gives a positive origin margin: not admissible, and --strict fails."""
        assert run(["analyze-f", "--kind", "power", "--p", "40"]) == 0
        text = capsys.readouterr().out
        assert "  origin exponent:     NO admissible exponent found\n" in text
        assert "origin_q=none\norigin_a3=none\noverall=false\n" in text
        assert run(["analyze-f", "--kind", "power", "--p", "40", "--strict"]) == 1

    def test_analyze_f_block_to_file(self, capsys, tmp_path):
        """--out takes the key=value block; stdout keeps the summary."""
        out = tmp_path / "report.txt"
        assert run(["analyze-f", "--kind", "quadratic", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        block = out.read_text()
        assert block.startswith("f0_ok=true\nmonotone_ok=true\n") and block.endswith("overall=true\n")
        assert len(block.splitlines()) == 8 and not set(block.splitlines()) & set(text.splitlines())
        assert "overall:             ADMISSIBLE" in text

    def test_analyze_f_failure_strict(self, capsys):
        # a bounded family cannot be expressed through the CLI's builtin
        # kinds, so exercise strict mode through the library path instead
        assert run(["analyze-f", "--kind", "quadratic", "--strict"]) == 0

    def test_bounds_schema_and_flags(self, lin_config, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--config", lin_config, "--out", str(out), "--strict"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == BOUNDS_HEADER
        assert len(lines) == 5
        assert all(line.endswith("true,true") for line in lines[1:])

    def test_bounds_deterministic_bytes(self, lin_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["bounds", "--config", lin_config, "--out", str(a)])
        os.environ["THINSHELL_THREADS"] = "1"
        try:
            run(["bounds", "--config", lin_config, "--out", str(b)])
        finally:
            del os.environ["THINSHELL_THREADS"]
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ["--kind", "quartic_perturbed", "--epsilon", "1", "--n-list", "20,50", "--count", "3000"],
        ["--kind", "linear_half", "--n-list", "50,500", "--count", "5000"],
    ], ids=["rejection", "scaling"])
    def test_ensembles_same_bytes_on_one_thread(self, monkeypatch, tmp_path, args):
        outs = []
        for threads in (None, "1", "2"):
            if threads is None:
                monkeypatch.delenv("THINSHELL_THREADS", raising=False)
            else:
                monkeypatch.setenv("THINSHELL_THREADS", threads)
            outs.append(tmp_path / f"ens{threads}.csv")
            assert run(["ensembles"] + args + ["--canonical-count", "70000", "--seed", "5", "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
    def test_bad_thread_cap_refused(self, monkeypatch, lin_config, capsys, value):
        monkeypatch.setenv("THINSHELL_THREADS", value)
        assert run(["bounds", "--config", lin_config]) == 1
        assert f"THINSHELL_THREADS must be an integer >= 1; got {value!r}" in capsys.readouterr().err

    def test_clt_scan_schema(self, tmp_path, capsys):
        out = tmp_path / "clt.csv"
        assert run(["clt-scan", "--kind", "quadratic", "--clt-n-list", "8,16", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,sup_dev,sqrt_2pin_sup_dev"
        assert len(lines) == 3
        assert "C_hat" in capsys.readouterr().out

    def test_wn_schema_with_exact_columns(self, tmp_path):
        out = tmp_path / "wn.csv"
        assert run(["wn", "--kind", "quadratic", "--n", "4", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "s,w_n,log_w_n,w_exact,log_w_exact"

    def test_wn_schema_without_closed_form(self, tmp_path):
        out = tmp_path / "wn.csv"
        assert run(["wn", "--kind", "quartic_perturbed", "--epsilon", "1", "--n", "2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "s,w_n,log_w_n"

    def test_converse_schema(self, tmp_path):
        out = tmp_path / "converse.csv"
        assert run(["converse", "--kind", "quadratic", "--n-list", "20,40", "--k-list", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,k,eps,lower_bound,tv"
        assert lines[1].startswith("20,10,")

    def test_converse_refuses_inadequate_rk(self, tmp_path, capsys):
        """At (n, k) = (2, 1) the quadratic's r_k misses unit mass by 6.1e-3,
        so converse exits 1 with the defect error and writes nothing."""
        out = tmp_path / "converse.csv"
        assert run(["converse", "--kind", "quadratic", "--n-list", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: r_k normalization defect 6.08e-03 >= 1e-4; grid inadequate\n"
        assert not out.exists()

    def test_bounds_c_override(self, tmp_path, monkeypatch):
        """--c-override replaces the scanned constant in every row and in
        kl_bound, and no CLT scan runs."""

        def no_scan(*args):
            raise AssertionError("local_clt_scan ran under --c-override")

        monkeypatch.setattr(cli, "local_clt_scan", no_scan)
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--kind", "quadratic", "--n-list", "50,100", "--k-list", "1,3",
                    "--alpha-list", "0,0.2", "--c-override", "3", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 6
        model = gibbs1d.solve_energy(hamiltonians.quadratic(), 1.0)
        for row in rows:
            n, k, alpha = int(row["n"]), int(row["k"]), float(row["alpha"])
            d_surface = projection._tilt(projection.make_context(model, n, k), alpha).d_surface
            assert float(row["C_used"]) == 3.0
            assert float(row["kl_bound"]) == d_surface + math.log(n / (n - k)) + 2.0 / (math.sqrt(n) / 3.0 - 1.0)

    def test_wn_grid_settings(self, tmp_path):
        """--grid-size and --grid-extent reach the grids wn writes."""
        out = tmp_path / "wn.csv"
        assert run(["wn", "--kind", "quadratic", "--n", "8", "--grid-size", "4096", "--grid-extent", "8",
                    "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        model = gibbs1d.solve_energy(hamiltonians.quadratic(), 1.0)
        params = gibbs1d.GridParams(4096, 8.0)
        fft, exact = sumdensity.w_fft(model, 8, params), sumdensity.w_exact(model, 8, params)
        assert table.shape == (4096, 5)
        np.testing.assert_array_equal(table[:, 0], fft.points())
        np.testing.assert_array_equal(table[:, 1], fft.values)
        np.testing.assert_array_equal(table[:, 3], exact.values)
        assert fft.dx != sumdensity.w_fft(model, 8, gibbs1d.GridParams(4096)).dx

    @pytest.mark.parametrize("testfn,k", [("const", 1), ("f1", 1), ("f1+f2", 2)])
    def test_ensembles_test_functions(self, tmp_path, testfn, k):
        """Each test function writes rows with its own k; the constant one
        has the same mean under both ensembles."""
        out = tmp_path / "ens.csv"
        assert run(["ensembles", "--kind", "quadratic", "--n-list", "20,50", "--count", "500",
                    "--canonical-count", "500", "--testfn", testfn, "--seed", "3", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(row["n"], row["k"], row["testfn"]) for row in rows] == [("20", str(k), testfn), ("50", str(k), testfn)]
        if testfn == "const":
            assert all(float(row["gap"]) == 0.0 for row in rows)

    def test_mixture_schema(self, tmp_path):
        out = tmp_path / "mix.csv"
        code = run(
            ["mixture", "--kind", "quadratic", "--n", "100", "--k-list", "2",
             "--mixture-t-list", "0.5,1", "--mixture-weights", "0.5,0.5", "--out", str(out), "--strict"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,k,tv_sum,bound,pass"
        assert lines[1].endswith("true")

    def test_ensembles_schema(self, tmp_path):
        out = tmp_path / "ens.csv"
        code = run(
            ["ensembles", "--kind", "linear_half", "--n-list", "50", "--count", "2000",
             "--canonical-count", "2000", "--testfn", "f1+f2", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,k,testfn,E_micro,E_canon,gap,se_micro,se_canon"

    def test_sample_writes_batch(self, tmp_path, capsys):
        out = tmp_path / "batch.thnshl"
        code = run(["sample", "--kind", "quadratic", "--n", "3", "--count", "2000", "--seed", "4", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "acceptance_rate" in text and "ks_vs_reference" in text
        batch = sampler.load_batch(out)
        assert batch.count == 2000 and batch.n == 3

    def test_sample_refuses_zero_n(self, tmp_path, capsys):
        out = tmp_path / "batch.thnshl"
        assert run(["sample", "--kind", "quadratic", "--n", "0", "--count", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n must be an integer >= 1; got 0\n"
        assert not out.exists()

    def test_sample_refuses_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "batch.thnshl"
        assert run(["sample", "--kind", "quadratic", "--n", "3", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0; got -1\n"
        assert not out.exists()

    def test_sample_rejection_method(self, tmp_path):
        out = tmp_path / "batch2.thnshl"
        code = run(
            ["sample", "--kind", "quadratic", "--n", "10", "--count", "500", "--seed", "4",
             "--method", "rejection", "--delta", "0.2", "--out", str(out)]
        )
        assert code == 0
        assert sampler.load_batch(out).method == "rejection"

    @pytest.mark.parametrize("n,digest", sorted(QUARTIC_BATCH_SHA256.items()))
    def test_quartic_rejection_batch_bytes(self, tmp_path, n, digest):
        """Pins the bytes of a rejection batch, so that no refactor moves a
        Philox stream silently; at n = 300 each block is drawn in 436-row
        slices."""
        out = tmp_path / f"quartic{n}.thnshl"
        code = run(["sample", "--kind", "quartic_perturbed", "--epsilon", "1", "--method", "rejection", "--n", str(n),
                    "--count", "99", "--seed", "4", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_solve_c_rejects_nan_energy(self, capsys):
        assert run(["solve-c", "--kind", "quadratic", "--t", "nan"]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

    @pytest.mark.parametrize(
        "args,name",
        [
            (["--kind", "power", "--p", "nan"], "exponent p"),
            (["--kind", "power", "--p", "inf"], "exponent p"),
            (["--kind", "quartic_perturbed", "--epsilon", "nan"], "epsilon"),
            (["--kind", "quartic_perturbed", "--epsilon", "inf"], "epsilon"),
        ],
    )
    def test_solve_c_rejects_non_finite_family_parameter(self, args, name, capsys):
        assert run(["solve-c", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and name in captured.err
        assert "Traceback" not in captured.err

    def test_overflowing_tilt_reports_error(self, capsys):
        code = run(["bounds", "--kind", "quadratic", "--n-list", "50", "--k-list", "1", "--alpha-list", "100"])
        assert code == 1
        assert "error: tilt normalizer overflows" in capsys.readouterr().err

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "solve.csv"
        run(["solve-c", "--kind", "linear_half", "--t", "3", "--out", str(out)])
        row = out.read_text().splitlines()[1]
        c_field = row.split(",")[1]
        assert c_field == format(float(c_field), ".17g")


class TestFailedChecks:
    """A failed bound check is reported, and is an error under --strict
    only."""

    @pytest.mark.parametrize("strict,code", [([], 0), (["--strict"], 1)])
    def test_bounds_reports_failed_cells(self, monkeypatch, tmp_path, capsys, strict, code):
        real = projection.bound_report

        def failing(ctx, C, alpha=0.0):
            report = real(ctx, C, alpha=alpha)
            return dataclasses.replace(report, pass_kl=report.k != 1)

        monkeypatch.setattr(projection, "bound_report", failing)
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--kind", "quadratic", "--n-list", "50", "--k-list", "1,3", "--c-override", "2",
                    "--out", str(out)] + strict) == code
        assert capsys.readouterr().err == "1 of 2 cells failed their bound\n"
        assert [row["pass_kl"] for row in csv.DictReader(io.StringIO(out.read_text()))] == ["false", "true"]

    @pytest.mark.parametrize("strict,code", [([], 0), (["--strict"], 1)])
    def test_mixture_fails_under_strict(self, monkeypatch, tmp_path, strict, code):
        """Each atom at distance 1 puts tv_sum far above sqrt(2k/(n-k))."""
        monkeypatch.setattr(projection, "tv_to_gibbs", lambda ctx: 1.0)
        out = tmp_path / "mixture.csv"
        assert run(["mixture", "--kind", "quadratic", "--n", "100", "--k-list", "2",
                    "--mixture-t-list", "0.5,1", "--mixture-weights", "0.5,0.5", "--out", str(out)] + strict) == code
        assert out.read_text().splitlines()[1].endswith(",false")


class TestShippedConfigs:
    def test_all_configs_parse(self):
        import pathlib

        for path in sorted(pathlib.Path("configs").glob("*.cfg")):
            values = cli.parse_config_file(str(path))
            cfg = cli.ExperimentConfig(**values)
            cfg.validate()
            cfg.spec()

    def test_converse_recipe_runs(self, tmp_path):
        out = tmp_path / "converse.csv"
        assert run(["converse", "--config", "configs/converse_quadratic.cfg", "--n-list", "20,40", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_mixture_recipe_runs(self, tmp_path):
        out = tmp_path / "mix.csv"
        assert run(["mixture", "--config", "configs/mixture_quadratic.cfg", "--strict", "--out", str(out)]) == 0

    def test_clt_scan_recipe_stdout(self, capsys):
        """The scan's CSV and its summary line, byte for byte."""
        assert run(["clt-scan", "--config", "configs/clt_scan_quadratic.cfg"]) == 0
        assert capsys.readouterr().out == CLT_SCAN_QUADRATIC_STDOUT

    def test_refused_scan_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        """The prerequisites are read before the CSV is written, so a scan
        that refuses the model leaves no output file."""

        def refuse(model):
            raise RuntimeError("|phi| does not decay")

        monkeypatch.setattr(gibbs1d, "_scan_prerequisites", refuse)
        out = tmp_path / "clt.csv"
        assert run(["clt-scan", "--config", "configs/clt_scan_quadratic.cfg", "--out", str(out)]) != 0
        assert not out.exists()
        assert "error: |phi| does not decay" in capsys.readouterr().err


# recorded when the sum grids' masses moved to one-pass trapezoid sums:
# the n = 32 and 128 rows moved by at most 2.3e-15 relative
CLT_SCAN_QUADRATIC_STDOUT = """n,sup_dev,sqrt_2pin_sup_dev
8,0.12872256228694356,0.91261920489567305
16,0.080467470221680104,0.80680814418276559
32,0.052901475979147794,0.75012339854260923
64,0.035724742967691347,0.71638920661392103
128,0.024509634437106353,0.69507513507736962
256,0.016982498347859754,0.68110096852191215
C_hat = 0.91261920489567305 (nu = 0.95310849077267523, I = 2.6220575551178729, r = 3)
"""


ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference"


def assert_matches_reference(out: pathlib.Path, reference: pathlib.Path, rows: int, rel: float) -> None:
    """Same header, shape and flags as the recorded CSV; numbers within ``rel``."""
    got = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    want = list(csv.reader(io.StringIO(reference.read_text(encoding="utf-8"))))
    assert got[0] == want[0] and len(got) == len(want) == rows + 1
    for row_got, row_want in zip(got[1:], want[1:]):
        assert len(row_got) == len(row_want)
        for a, b in zip(row_got, row_want):
            try:
                x, y = float(a), float(b)
            except ValueError:
                assert a == b
                continue
            if math.isnan(x) or math.isnan(y):
                assert a == b
            else:
                assert x == pytest.approx(y, rel=rel, abs=0.0), (row_want[:2], a, b)


def _load_bench_child():
    """``bench/child.py``, loaded from its file (``bench`` is no package)."""
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_CHILD = _load_bench_child()
BENCH_STEPS = [(w, step.name) for w in BENCH_CHILD.WORKLOADS for step in BENCH_CHILD.steps(w, BENCH_CHILD.SHIPPED)]


class TestReferenceOutputs:
    """Shipped runs against the benchmark's recorded CSVs."""

    @pytest.mark.parametrize("workload,name", BENCH_STEPS, ids=[f"{w}-{n}" for w, n in BENCH_STEPS])
    def test_bench_step_within_reference_gate(self, workload, name):
        """Every benchmark step at its shipped inputs passes the benchmark's
        own checks and its reference gate (``child.DRIFT_TOL``)."""
        (step,) = [s for s in BENCH_CHILD.steps(workload, BENCH_CHILD.SHIPPED) if s.name == name]
        text, problems, _ = step.check(step.produce())
        assert problems == []
        reference = (BENCH_CHILD.REFERENCE / workload / f"{name}.csv").read_text(encoding="utf-8")
        drift, mismatches = BENCH_CHILD.drift(text, reference)
        assert mismatches == [] and drift <= BENCH_CHILD.DRIFT_TOL, (drift, mismatches)

    def test_quartic_sweep_matches_reference(self, tmp_path):
        """The FFT sweep whose single-summand edge model has two terms (the
        perturbed quartic)."""
        out = tmp_path / "quartic.csv"
        code = run(["bounds", "--kind", "quartic_perturbed", "--epsilon", "1", "--n-list", "50,100,200",
                    "--k-list", "1,3,5", "--strict", "--out", str(out)])
        assert code == 0
        assert_matches_reference(out, REFERENCE / "bounds_fft" / "quartic.csv", 9, rel=1e-9)

    def test_exponential_ensembles_match_reference(self, tmp_path):
        """Scaling sampler at n = 50 and 500: pins the Philox stream and the
        homogeneous projection."""
        out = tmp_path / "exponential.csv"
        assert run(["ensembles", "--config", str(ROOT / "configs" / "ensembles_exponential.cfg"), "--out", str(out)]) == 0
        assert_matches_reference(out, REFERENCE / "ensembles" / "exponential.csv", 2, rel=1e-12)

    def test_quartic_ensembles_match_reference(self, tmp_path):
        """Rejection sampler at n = 20 and 50: pins the Philox stream, the
        shell and the Newton projection."""
        out = tmp_path / "quartic.csv"
        code = run(["ensembles", "--kind", "quartic_perturbed", "--epsilon", "1", "--t", "1", "--n-list", "20,50",
                    "--count", "20000", "--canonical-count", "100000", "--seed", "1009", "--out", str(out)])
        assert code == 0
        assert_matches_reference(out, REFERENCE / "ensembles" / "quartic.csv", 2, rel=1e-12)


QUARTIC_SWEEP = ["bounds", "--kind", "quartic_perturbed", "--epsilon", "1", "--n-list", "20,23", "--k-list", "1,3",
                 "--alpha-list", "0,0.2", "--clt-n-list", "8,16,32"]
# (n, k, alpha) -> (kl, tv) of QUARTIC_SWEEP, the same whichever w_{n-k}
# grids the memo keeps; 23 - 3 = 20 is also a cell's n.  Recorded when
# grid masses and divergences moved to one-pass trapezoid sums over the
# nodes (kl moved by at most 9.5e-14 relative, tv by 9.6e-16).
QUARTIC_KL_TV = {
    (20, 1, 0.0): (0.0030187670609345646, 0.04189408529071097),
    (20, 1, 0.2): (0.08154344354847366, 0.29369141296743484),
    (20, 3, 0.0): (0.014427586112036594, 0.10844993322763977),
    (23, 1, 0.0): (0.002248032538352005, 0.036049282959943474),
    (23, 1, 0.2): (0.0842397003263153, 0.2935146515662606),
    (23, 3, 0.0): (0.010612084893089964, 0.09243663466557966),
}


class TestConcurrentBuilds:
    """Grid builds, the CLT scan and the sweep run at once on up to
    ``THINSHELL_THREADS`` threads; no output depends on it."""

    @staticmethod
    def _sweep(monkeypatch, tmp_path, threads):
        """Run QUARTIC_SWEEP; its CSV bytes and the model it solved."""
        if threads is None:
            monkeypatch.delenv("THINSHELL_THREADS", raising=False)
        else:
            monkeypatch.setenv("THINSHELL_THREADS", threads)
        models = []
        solve = cli.solve_energy
        monkeypatch.setattr(cli, "solve_energy", lambda spec, t: models.append(solve(spec, t)) or models[-1])
        out = tmp_path / f"quartic-{threads}.csv"
        assert run(QUARTIC_SWEEP + ["--out", str(out)]) == 0
        return out.read_bytes(), models[0]

    def test_same_bytes_and_values_on_any_thread_count(self, monkeypatch, tmp_path):
        outs = [self._sweep(monkeypatch, tmp_path, threads)[0] for threads in ("1", "2", None)]
        assert outs[0] == outs[1] == outs[2]
        rows = list(csv.DictReader(io.StringIO(outs[0].decode())))
        got = {(int(r["n"]), int(r["k"]), float(r["alpha"])): (float(r["kl"]), float(r["tv"])) for r in rows}
        assert got == QUARTIC_KL_TV

    def test_memo_keeps_only_shared_grids(self, monkeypatch, tmp_path):
        """w_{n-k} grids are owned by their cell; the memo keeps the w_k and
        w_n grids, which include 23 - 3 = 20."""
        _, model = self._sweep(monkeypatch, tmp_path, "2")
        assert sorted(key[1] for key in model._cache if key[0] == "w") == [1, 3, 20, 23]

    def test_one_thread_starts_no_thread(self, monkeypatch, tmp_path, quartic_model):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        self._sweep(monkeypatch, tmp_path, "1")
        projection.make_context(dataclasses.replace(quartic_model, _cache={}), 20, 3)

    def test_pool_threads_fan_out_inline(self, monkeypatch):
        monkeypatch.setenv("THINSHELL_THREADS", "2")
        assert hamiltonians._fan_out(lambda _: hamiltonians._pool_size(8), [0, 1, 2]) == [1, 1, 1]
        assert hamiltonians._pool_size(8) == 2


class TestConfigFileClosed:
    def test_no_resource_warning(self):
        """A --config run under -X dev, with resource warnings as errors,
        exits 0 and writes nothing to stderr."""
        code = ("import sys; from thinshell.cli import main; "
                "sys.exit(main(['solve-c', '--config', 'configs/bounds_exponential.cfg']))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""


# small runs of every subcommand the cold-import guard checks, run in this
# order in one interpreter; none may load any of SCIPY_FREE: the FFT-route
# families take the Gauss-Legendre, Newton and PCHIP routes and the Gamma
# functions of thinshell._special, and a closed-form family's mean goes
# through the QUADPACK port of thinshell._quadpack
SCIPY_FREE = ["scipy", "scipy.special", "scipy.integrate", "scipy.optimize", "scipy.interpolate"]
GUARDED_RUNS = [
    ("bounds quartic", ["bounds", "--kind", "quartic_perturbed", "--epsilon", "1", "--n-list", "20",
                        "--k-list", "1", "--clt-n-list", "8"]),
    ("ensembles quartic rejection", ["ensembles", "--kind", "quartic_perturbed", "--epsilon", "1", "--n-list", "6",
                                     "--method", "rejection", "--delta", "0.3", "--count", "200",
                                     "--canonical-count", "200"]),
    ("solve-c quadratic", ["solve-c", "--kind", "quadratic"]),
    ("bounds quadratic", ["bounds", "--kind", "quadratic", "--n-list", "20", "--k-list", "1", "--clt-n-list", "8"]),
    ("converse", ["converse", "--kind", "quadratic", "--n-list", "20"]),
    ("mixture", ["mixture", "--kind", "quadratic", "--n", "20", "--k-list", "2"]),
    ("sample", ["sample", "--kind", "quadratic", "--n", "3", "--count", "100"]),
    ("clt-scan", ["clt-scan", "--kind", "quadratic", "--clt-n-list", "8,16"]),
    ("ensembles linear_half scaling", ["ensembles", "--kind", "linear_half", "--n-list", "6", "--method", "scaling",
                                       "--count", "200", "--canonical-count", "200"]),
]


class TestColdImport:
    def test_scipy_modules_left_unloaded(self, tmp_path):
        """A fresh interpreter imports the CLI without any scipy module, then
        runs each guarded subcommand in process; after each run, still no
        module of SCIPY_FREE is loaded."""
        code = (
            "import json, sys\n"
            "from thinshell import cli\n"
            "loaded = {'import': [m for m in sys.argv[2:] if m in sys.modules]}\n"
            "for name, args in json.loads(sys.argv[1]):\n"
            "    code = cli.main(args + ['--out', name.replace(' ', '_')])\n"
            "    loaded[name] = [m for m in sys.argv[2:] if m in sys.modules] if code == 0 else f'exit {code}'\n"
            "print(json.dumps(loaded))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(GUARDED_RUNS), *SCIPY_FREE], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert loaded["import"] == []
        for name, _ in GUARDED_RUNS:
            assert loaded[name] == [], (name, loaded[name])


class TestSteadyHeap:
    """``main`` fixes glibc's malloc settings through ``_steady_heap``; off
    glibc that is a no-op."""

    @staticmethod
    def _record_mallopt(monkeypatch) -> list:
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        return calls

    def test_sets_one_arena_and_both_thresholds(self, monkeypatch):
        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.36"))
        calls = self._record_mallopt(monkeypatch)
        cli._steady_heap()
        # M_ARENA_MAX, M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of <malloc.h>
        assert calls == [(-8, 1), (-3, 4 << 20), (-1, 32 << 20)]

    def test_no_op_off_glibc(self, monkeypatch, tmp_path):
        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        calls = self._record_mallopt(monkeypatch)
        cli._steady_heap()
        assert run(["solve-c", "--kind", "quadratic", "--out", str(tmp_path / "c.csv")]) == 0
        assert calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_twice_is_harmless(self, tmp_path):
        """Applied twice by hand and once more by each run, the settings
        leave a sweep's output unchanged."""
        args = ["bounds", "--kind", "quadratic", "--n-list", "20,40", "--k-list", "1,3", "--clt-n-list", "8"]
        outs = []
        for i in range(2):
            cli._steady_heap()
            out = tmp_path / f"b{i}.csv"
            assert run(args + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFmt:
    @pytest.mark.parametrize("value", [True, False])
    def test_numpy_bool(self, value):
        assert cli._fmt(np.bool_(value)) == cli._fmt(value) == ("true" if value else "false")

    @pytest.mark.parametrize("value", [0.1, -2.5e-300, 1.0 / 3.0, math.nan, math.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.longdouble])
    def test_numpy_float(self, value, dtype):
        scalar = dtype(value)
        assert cli._fmt(scalar) == cli._fmt(float(scalar))
