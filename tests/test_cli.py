import math
import re
import shlex
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import gammaln_spectrum
from szegolab import cli, toeplitz

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    return cli.main(argv)


def _mp_scaled_trace(r, alpha, p):
    # sqrt(pi/alpha) sum_m lambda_m^p in 30-digit mpmath: the peak term from
    # log-gammas, then the ratios r^2 (alpha+m+2)/(m+1) of successive terms,
    # out on both sides until a term falls below 1e-32 of the peak's.
    with mpmath.workdps(30):
        r, a, p = mpmath.mpf(r), mpmath.mpf(alpha), mpmath.mpf(p)
        q = r * r
        m_star = int((alpha + 1.0) * float(q) / (1.0 - float(q)))
        log_peak = (mpmath.log(2 * mpmath.pi) - mpmath.log(2 * mpmath.pi * a) / 2
                    + (a - 1) * mpmath.log(1 - q) + mpmath.loggamma(a + m_star + 2)
                    - mpmath.loggamma(a + 1) - mpmath.loggamma(m_star + 1)
                    + (2 * m_star + 1) * mpmath.log(r))
        total, floor = mpmath.mpf(1), -32 * mpmath.log(10)
        for step in (1, -1):
            m, log_term = m_star, mpmath.mpf(0)
            while m + step >= 0 and log_term >= floor:
                ratio = q * (a + m + 2) / (m + 1) if step == 1 else m / (q * (a + m + 1))
                log_term += p * mpmath.log(ratio)
                m += step
                total += mpmath.exp(log_term)
        return float(mpmath.sqrt(mpmath.pi / a) * mpmath.exp(p * log_peak) * total)


class TestTables:
    def test_table1_passes_golden(self, capsys):
        assert run(["table1"]) == 0
        out = capsys.readouterr().out
        assert "| 100 | 14 | 13.47 | 2.4814 |" in out
        assert "| 100000 | 426 | 426.17 | 2.3877 |" in out
        assert out.count("|") > 20

    def test_table2_passes_golden(self, capsys):
        assert run(["table2"]) == 0
        out = capsys.readouterr().out
        assert "| 100 | 5 | 5.60 | 0.8862 |" in out
        assert "| 100000 | 177 | 177.17 | 0.9920 |" in out

    def test_golden_mismatch_exits_4(self, capsys):
        bad = dict(cli.GOLDEN_TABLE1)
        bad["counts"] = (15,) + bad["counts"][1:]

        class Args:
            format = "md"
            out = None

        assert cli.cmd_table(bad, Args()) == cli.EXIT_GOLDEN
        err = capsys.readouterr().err
        assert "count 14 != 15" in err

    def test_csv_defines_full_precision(self, capsys):
        assert run(["table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header, first = out.splitlines()[:2]
        assert header == "alpha,count,predicted_count,scaled_count"
        cells = first.split(",")
        assert cells[1] == "14"
        assert abs(float(cells[2]) - 13.4769) < 1e-3
        assert len(cells[2].split(".")[1]) > 10  # 17 significant digits

    def test_csv_byte_identical_across_runs(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        assert run(["table2", "--format", "csv", "--out", str(p1)]) == 0
        assert run(["table2", "--format", "csv", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    # Frozen outputs: tables byte for byte, the trace scan within 1e-14
    # relative (its limit moves by ulps when the transform changes).
    @pytest.mark.parametrize("name, argv, rel", [
        ("table1.csv", ["table1"], 0.0),
        ("table2.csv", ["table2"], 0.0),
        ("scan_r0.5_pow0.3.csv",
         ["scan", "--r", "0.5", "--alpha", "1e2,1e4,1e5", "--phi", "pow:0.3"],
         1e-14),
    ])
    def test_matches_golden_csv(self, tmp_path, name, argv, rel):
        out = tmp_path / name
        assert run(argv + ["--format", "csv", "--out", str(out)]) == 0
        if rel == 0.0:
            assert out.read_bytes() == (GOLDEN / name).read_bytes()
            return
        got_rows = [line.split(",") for line in out.read_text().splitlines()]
        want_rows = [line.split(",") for line in (GOLDEN / name).read_text().splitlines()]
        assert got_rows[0] == want_rows[0]
        assert len(got_rows) == len(want_rows)
        for g_row, w_row in zip(got_rows[1:], want_rows[1:]):
            for g, w in zip(g_row, w_row, strict=True):
                assert float(g) == pytest.approx(float(w), rel=rel, abs=0.0)

    def test_golden_scan_matches_mpmath_sum(self):
        # The frozen trace rows are the mpmath sums to 1e-15, well inside the
        # 1e-14 that ties them to the scan output.
        lines = (GOLDEN / "scan_r0.5_pow0.3.csv").read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            alpha, lhs, _ = line.split(",")
            want = _mp_scaled_trace(0.5, float(alpha), 0.3)
            assert abs(float(lhs) - want) <= 1e-15 * want, alpha


class TestScan:
    def test_phi_scan(self, capsys):
        assert run(["scan", "--r", "0.5", "--alpha", "1000,10000",
                    "--phi", "pow:2"]) == 0
        out = capsys.readouterr().out
        assert "lhs_scaled" in out and out.count("\n") == 4

    def test_interval_scan_csv(self, capsys):
        assert run(["scan", "--r", "0.5", "--alpha", "100", "--t1", "0.5",
                    "--t2", "1.5", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        want, margin = gammaln_spectrum.count(0.5, 100.0, 0.5, 1.5)
        assert margin > 1e-9
        assert out.splitlines()[1].split(",")[1] == str(want)

    def test_missing_arguments_exit_2(self, capsys):
        assert run(["scan", "--r", "0.5"]) == 2
        assert run(["scan", "--alpha", "100"]) == 2
        assert run(["scan", "--r", "0.5", "--alpha", "100"]) == 2
        assert "error" in capsys.readouterr().err

    def test_phi_with_an_interval_exit_2(self, tmp_path, capsys):
        # One scan computes a trace or a count; an interval given with a phi,
        # on the command line or in a config file, is refused, not dropped.
        base = ["scan", "--r", "0.5", "--alpha", "100"]
        assert run(base + ["--phi", "pow:1", "--t1", "0.5", "--t2", "1.5"]) == 2
        assert run(base + ["--phi", "pow:1", "--t1", "0.5"]) == 2
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("phi = pow:1\nt1 = 0.5\nt2 = 1.5\n")
        assert run(base + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("exactly one of phi or interval") == 3

    def test_index_past_2_53_exit_2(self, capsys):
        # m* ~ 3.3e19: the count's window search would reach indices that
        # float arithmetic no longer tells apart.
        assert run(["scan", "--r", "0.5", "--alpha", "1e20", "--t1", "0.5", "--t2", "1.7"]) == 2
        assert "2^53" in capsys.readouterr().err

    def test_window_sizing_past_the_float_range_exit_2(self, capsys):
        # A peak index or a window width past the float range is refused, with
        # no warning on the way; a refused index is printed in short form.
        for argv in (["scan", "--r", "0.5", "--alpha", "1e308", "--phi", "pow:1"],
                     ["scan", "--r", "0.5", "--alpha", "1e2", "--phi", "pow:1e-308"],
                     ["scan", "--r", "0.5", "--alpha", "1e2", "--phi", "pow:1e-320"],
                     ["scan", "--r", "0.9", "--alpha", "1e308", "--phi", "pow:1"],
                     ["trace-compare", "--alpha", "1e308"]):
            assert run(argv) == 2
        capsys.readouterr()
        assert run(["scan", "--r", "0.5", "--alpha", "1e200", "--phi", "pow:1"]) == 2
        assert "would reach index 3.33e+199, past 2^53" in capsys.readouterr().err

    def test_unresolved_neighbours_exit_2(self, capsys):
        # sigma^2 is 2.5e17 and 2.5e19 here: the count's window bounds round by
        # more than the step between neighbouring indices.
        for r in ("0.999", "0.9999"):
            assert run(["scan", "--r", r, "--alpha", "1e12", "--t1", "1e-300", "--t2", "1e5"]) == 2
        assert capsys.readouterr().err.count("cannot resolve neighbouring indices") == 2

    def test_bad_alpha_list(self, capsys):
        assert run(["scan", "--r", "0.5", "--alpha", "ten", "--phi", "pow:1"]) == 2

    def test_malformed_phi_numbers_exit_2(self, capsys):
        for spec in ("pow:x", "pow:", "poly:1,a"):
            assert run(["scan", "--r", "0.5", "--alpha", "100", "--phi", spec]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_non_finite_phi_exit_2(self, capsys):
        for spec in ("pow:inf", "pow:nan", "poly:1,inf"):
            assert run(["scan", "--r", "0.5", "--alpha", "100", "--phi", spec]) == 2
        assert "finite" in capsys.readouterr().err

    def test_near_unit_radius(self, capsys):
        # m* ~ 5e7: the count is windowed, and so is the trace.  The pow:1
        # window (about 3.1e6 indices) fits under the cap and matches the
        # closed form sum lambda = 2 pi (alpha+1) r (1-r^2)^-3 / sqrt(2 pi
        # alpha) to the explicit spectrum's own error there; the pow:0.05
        # window (about 1.4e7) is refused before it is evaluated.
        assert run(["scan", "--r", "0.999", "--alpha", "1e5", "--t1", "1e4",
                    "--t2", "2e5", "--format", "csv"]) == 0
        assert int(capsys.readouterr().out.splitlines()[1].split(",")[1]) > 5e5
        assert run(["scan", "--r", "0.999", "--alpha", "1e5", "--phi", "pow:1",
                    "--format", "csv"]) == 0
        lhs = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        r, alpha = 0.999, 1e5
        want = (math.sqrt(math.pi / alpha) * 2.0 * math.pi * (alpha + 1.0) * r
                * (1.0 - r * r) ** -3 / math.sqrt(2.0 * math.pi * alpha))
        assert lhs == pytest.approx(want, rel=1e-7, abs=0.0)
        assert run(["scan", "--r", "0.999", "--alpha", "1e5", "--phi", "pow:0.05"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_count_does_not_stop_at_a_cutoff(self, capsys):
        # Every eigenvalue down to 1e-300: a scipy gammaln count gives 35,420.
        # Below the smallest normal float the values would be subnormal.
        assert run(["scan", "--r", "0.9", "--alpha", "1e4", "--t1", "1e-300",
                    "--t2", "27.7", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "35420"
        assert run(["scan", "--r", "0.9", "--alpha", "1e4", "--t1", "1e-320",
                    "--t2", "27.7"]) == 2
        assert "smallest normal" in capsys.readouterr().err

    def test_small_power_trace_is_not_truncated(self, capsys):
        # The small-p weights of the benchmark's trace workload, alpha = 1e2
        # to 1e5 in half decades: past the cutoff where lambda falls below
        # 1e-14 of its peak, the tail of lambda^0.05 is still 5.4e-4 of the
        # sum at alpha = 1e4.  Reference: a scipy gammaln sum over indices
        # far past where lambda^0.05 falls below 1e-20 of its peak.
        r, alphas = 0.75, [10.0 ** (2.0 + 0.5 * k) for k in range(7)]
        assert run(["scan", "--r", str(r), "--alpha", ",".join(map(repr, alphas)),
                    "--phi", "pow:0.05", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for alpha, row in zip(alphas, rows, strict=True):
            m_star = int((alpha + 1.0) * r * r / (1.0 - r * r))
            sigma = math.sqrt(alpha + 2.0) * r / (1.0 - r * r)
            m = np.arange(max(0, m_star - int(60 * sigma) - 100), m_star + int(80 * sigma) + 8000,
                          dtype=float)
            log_lam = gammaln_spectrum.log_eigenvalues(r, alpha, m)
            floor = log_lam.max() - 20.0 / 0.05 * math.log(10.0)
            assert (m[0] == 0 or log_lam[0] < floor) and log_lam[-1] < floor
            want = math.sqrt(math.pi / alpha) * float(np.sum(np.exp(0.05 * log_lam)))
            assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-10, abs=0.0), alpha

    def test_poly_phi_spec(self, capsys):
        assert run(["scan", "--r", "0.5", "--alpha", "1000",
                    "--phi", "poly:2,3"]) == 0


class TestClassify:
    def test_circle_output_line(self, capsys):
        assert run(["classify", "--chart", "circle"]) == 0
        assert capsys.readouterr().out.strip() == \
            "isotropic (lagrangian), λ-spectrum: []"

    def test_sphere_output(self, capsys):
        assert run(["classify", "--chart", "sphere3", "--r", "0.4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("co-isotropic")
        assert "1" in out

    def test_generic_output(self, capsys):
        assert run(["classify", "--chart", "generic2d"]) == 0
        assert capsys.readouterr().out.startswith("neither")

    def test_unknown_chart_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--chart", "torus"])
        assert exc.value.code == 2


class TestChecks:
    def test_hessdet(self, capsys):
        assert run(["hessdet", "--d", "2", "--m", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_spread" in out
        spread = float(out.splitlines()[-1].split("|")[2])
        assert spread < 1e-9

    def test_hessdet_deterministic_per_seed(self, capsys):
        run(["hessdet", "--d", "3", "--m", "5", "--seed", "11", "--format", "csv"])
        first = capsys.readouterr().out
        run(["hessdet", "--d", "3", "--m", "5", "--seed", "11", "--format", "csv"])
        assert capsys.readouterr().out == first

    def test_qcheck(self, capsys):
        assert run(["qcheck"]) == 0
        assert "worst" in capsys.readouterr().out

    def test_trace_compare(self, capsys):
        assert run(["trace-compare", "--m", "2", "--alpha", "50", "--r", "0.5"]) == 0
        assert "rel_diff" in capsys.readouterr().out

    def test_trace_compare_accuracy_exit(self, capsys):
        assert run(["trace-compare", "--m", "2", "--alpha", "50", "--r", "0.5",
                    "--tol", "1e-20"]) == cli.EXIT_ACCURACY

    def test_trace_compare_any_length_and_weight(self, capsys):
        assert run(["trace-compare", "--m", "1"]) == 2
        assert "integer >= 2" in capsys.readouterr().err
        assert run(["trace-compare", "--alpha", "1e4", "--m", "5"]) == 0

    def test_trace_compare_eigenvalue_sum_overflow(self, capsys):
        # sum lambda^200 overflows at alpha = 1e3: the eigenvalue side
        # refuses it itself, with no numpy warning on the way.
        assert run(["trace-compare", "--m", "200", "--alpha", "1e3"]) == 2
        assert "eigenvalue sum of power 200 exceeds the float range" in capsys.readouterr().err

    def test_trace_compare_large_power_at_small_r(self, capsys):
        # At r = 0.1 the tail factor of the power-200 window is formed from
        # p D = -782 and the sum (about 7e19) is in range: it is compared, not
        # refused as an overflow.
        assert run(["trace-compare", "--r", "0.1", "--alpha", "1", "--m", "200",
                    "--format", "csv"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.split()[1:])
        assert float(rows["rel_diff"]) < 1e-12
        assert run(["scan", "--r", "0.1", "--alpha", "1", "--phi", "pow:200"]) == 0

    def test_trace_compare_refuses_oversized_spectrum_first(self, capsys):
        # The eigenvalue side's trace window (about 1.9e7 indices) is over
        # its cap; it fails before any doubling.
        start = time.monotonic()
        assert run(["trace-compare", "--r", "0.9999", "--alpha", "1e5"]) == 2
        assert time.monotonic() - start < 2.0
        assert "above the cap" in capsys.readouterr().err

    def test_trace_compare_refuses_the_node_count_before_the_walks(self, capsys, monkeypatch):
        # The eigenvalue side's window (about 2.2e6 indices at p = 2) is under
        # its cap, but the quadrature's p = 1 window of about 3.1e6 takes 2^22
        # nodes, over the walk-entry cap: exit 2 without a single walk.
        def no_walks(*args):
            raise AssertionError("the walks ran")

        monkeypatch.setattr(toeplitz, "_cyclic_trace", no_walks)
        start = time.monotonic()
        assert run(["trace-compare", "--r", "0.999", "--alpha", "1e5"]) == 2
        assert time.monotonic() - start < 1.0
        assert "4194304 nodes/axis" in capsys.readouterr().err

    def test_trace_compare_eigenvalue_sum_matches_mpmath(self, capsys):
        # sum d^m = (2 pi alpha)^(m/2) sum lambda^m against the 30-digit
        # sum; a scipy gammaln sum is itself off by 5.7e-12 here, its
        # log-gammas being of size 1e4.
        r, alpha, m = 0.7, 1e3, 4
        assert run(["trace-compare", "--m", str(m), "--alpha", "1e3", "--r", str(r),
                    "--format", "csv"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
        want = (2 * math.pi * alpha) ** (m / 2) \
            * _mp_scaled_trace(r, alpha, m) / math.sqrt(math.pi / alpha)
        assert abs(float(rows["eigenvalue_sum"]) - want) <= 1e-13 * want


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.5\nalpha = 1000\nphi = pow:1  # linear\n")
        assert run(["scan", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "1000" in out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.5\nalpha = 1000\nphi = pow:1\n")
        assert run(["scan", "--config", str(cfg), "--alpha", "500"]) == 0
        out = capsys.readouterr().out
        assert "500" in out and "1000" not in out

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        assert run(["scan", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, capsys):
        assert run(["scan", "--config", "/nonexistent/x.cfg"]) == 2

    def test_malformed_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r = 0.5\nalpha = 100\nphi = pow:1\nm = 2.5\n")
        assert run(["scan", "--config", str(cfg)]) == 2
        cfg.write_bytes(b"r = 0.5\xff\n")
        assert run(["scan", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_format_is_a_flag_choice(self, tmp_path, capsys):
        cfg = tmp_path / "fmt.cfg"
        for bad in ("xml", "markdown"):
            cfg.write_text(f"format = {bad}\n")
            assert run(["hessdet", "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "format" in captured.err
        cfg.write_text("format = csv\n")
        assert run(["hessdet", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("method,value_re,value_im\n")


class TestExitContract:
    def test_internal_value_error_is_not_a_validation_error(self, monkeypatch):
        # Only deliberate validation failures (DomainError and the other
        # szegolab errors) map to exit 2; a ValueError from inside is a bug
        # and must surface.
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli, "convergence_scan", broken)
        with pytest.raises(ValueError, match="internal failure"):
            run(["scan", "--r", "0.5", "--alpha", "100", "--phi", "pow:1"])

    def test_invalid_block_dimension_exit_2(self, capsys):
        assert run(["hessdet", "--d", "0"]) == 2
        assert run(["hessdet", "--d", "-1"]) == 2

    def test_hessdet_binomials_past_float_range_exit_2(self, capsys):
        # C(1100, 549) is about 1e329; float() of it raised OverflowError.
        assert run(["hessdet", "--d", "1", "--m", "1100"]) == 2
        assert "float range" in capsys.readouterr().err

    def test_hessdet_block_order_cap_exit_2(self, capsys):
        # (m-1) d = 39,800: about 25 GB of complex matrix, refused first.
        assert run(["hessdet", "--d", "200", "--m", "200"]) == 2
        assert "cap" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["scan", "--r", "1e-200", "--alpha", "100", "--phi", "pow:1"],
        ["trace-compare", "--r", "1e-200", "--alpha", "100"]])
    def test_radius_whose_square_underflows_exit_2(self, argv, capsys):
        assert run(argv) == 2
        assert "smallest normal" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["100,0", "-0.5"])
    def test_trace_scan_non_positive_alpha_exit_2(self, alphas, capsys):
        assert run(["scan", "--r", "0.5", "--alpha", alphas, "--phi", "pow:1"]) == 2
        assert "alpha > 0" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys):
        assert run(["hessdet", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["classify", "--chart", "circle", "--tol", "nan"],
                                      ["trace-compare", "--tol", "nan"],
                                      ["trace-compare", "--tol", "0"]])
    def test_tolerance_not_finite_and_positive_exit_2(self, argv, capsys):
        assert run(argv) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_poly_phi_past_the_float_range_exit_2_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["scan", "--r", "0.5", "--alpha", "100", "--phi", "poly:1e308,1e308"]) == 2
        assert "float range" in capsys.readouterr().err


def _readme_examples():
    # The ``szegolab ...`` lines of README's sh blocks, comments dropped.
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("szegolab ")]


class TestReadmeExamples:
    def test_examples_found(self):
        assert len(_readme_examples()) == 8

    @pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
    def test_example_exits_0(self, argv, capsys):
        assert run(argv) == 0


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_truncate_helper(self):
        assert cli.truncate(13.4769, 2) == 13.47
        assert cli.truncate(2.375088, 4) == 2.3750
        assert cli.truncate(5.602693, 2) == 5.60


# A valid command-line value for each flag, for the parser-only checks.
FLAG_VALUES = dict(r="0.5", alpha="100", t1="0.5", t2="1.5", phi="pow:1", chart="circle",
                   m="2", d="2", seed="1", tol="1e-4", format="csv", out="x")


def declared(name):
    """The flags a command reads, from its COMMANDS entry (help, handler, defaults)."""
    return set(cli.COMMANDS[name][2])


class TestCommandContract:
    def test_every_flag_has_a_value(self):
        assert set(FLAG_VALUES) == set(cli.FLAGS)

    def test_flag_slots(self):
        # 7 commands, each with its own flags plus --config.
        assert sum(len(declared(name)) + 1 for name in cli.COMMANDS) == 34

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_offers_exactly_its_flags(self, name):
        parsed = vars(cli.build_parser().parse_args([name]))
        assert set(parsed) == declared(name) | {"command", "config"}
        for key in declared(name):
            assert vars(cli.build_parser().parse_args(
                [name, f"--{key}", FLAG_VALUES[key]]))[key] is not None

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_unread_flag_exits_2(self, name, capsys):
        unread = sorted(set(cli.FLAGS) - declared(name))
        assert unread  # every command leaves some flag unread
        for key in unread:
            with pytest.raises(SystemExit) as exc:
                run([name, f"--{key}", FLAG_VALUES[key]])
            assert exc.value.code == 2

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_unread_config_key_exits_2(self, name, tmp_path, capsys):
        unread = sorted(set(cli.FLAGS) - declared(name))
        cfg = tmp_path / "run.cfg"
        for key in unread + ["config", "p"]:
            cfg.write_text(f"{key} = {FLAG_VALUES.get(key, '1')}\n")
            assert run([name, "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: config keys not read by {name}: {key}" in captured.err

    def test_no_abbreviated_flags(self, capsys):
        for argv in (["--he"], ["scan", "--alph", "100"],
                     ["scan", "--r", "0.5", "--alpha", "100", "--p", "2"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2

    def test_scan_has_no_cutoff(self, tmp_path, capsys):
        # Counts and traces take every eigenvalue: no flag or config key
        # truncates them.
        with pytest.raises(SystemExit) as exc:
            run(["scan", "--r", "0.5", "--alpha", "100", "--phi", "pow:1", "--cutoff", "50"])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.5\nalpha = 100\nphi = pow:1\ncutoff = 50\n")
        assert run(["scan", "--config", str(cfg)]) == 2
        assert "config keys not read by scan: cutoff" in capsys.readouterr().err

    def test_trace_compare_takes_one_alpha(self, capsys):
        assert run(["trace-compare", "--alpha", "30,50"]) == 2
        assert "one alpha" in capsys.readouterr().err

    def test_config_values_are_typed_and_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("chart = torus\n")
        assert run(["classify", "--config", str(cfg)]) == 2
        assert "chart" in capsys.readouterr().err
        cfg.write_text("chart = circle\nr = 0.3\n")
        assert run(["classify", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("isotropic")
        cfg.write_text("m = 2.5\n")
        assert run(["hessdet", "--config", str(cfg)]) == 2
        assert "could not parse config m" in capsys.readouterr().err
        # A bad value is refused even where a flag overrides it.
        cfg.write_text("format = xml\n")
        assert run(["qcheck", "--format", "csv", "--config", str(cfg)]) == 2
        assert "format" in capsys.readouterr().err
