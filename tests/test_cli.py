import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_report_matches
from lingopt.cli import MAX_GRID, MAX_SAMPLE_N, main
from lingopt.codebook import format_codebook, load_codebook

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenReports:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("solve_pr_case_solop_hma.txt", ["solve", "pr", "--problem", "case-solop", "--codebook", "paper-hma"]),
            ("solve_pr_case_molop_hma.txt", ["solve", "pr", "--problem", "case-molop", "--codebook", "paper-hma"]),
            ("solve_pr_case_solop_ia.txt", ["solve", "pr", "--problem", "case-solop", "--codebook", "paper-ia"]),
            ("solve_pr_case_molop_ia.txt", ["solve", "pr", "--problem", "case-molop", "--codebook", "paper-ia"]),
            ("solve_two_tuple_case_solop.txt", ["solve", "two-tuple", "--problem", "case-solop"]),
            ("solve_two_tuple_case_molop.txt", ["solve", "two-tuple", "--problem", "case-molop"]),
            ("solve_two_tuple_sm_toy.txt", ["solve", "two-tuple", "--problem", "sm-toy"]),
            ("solve_tsukamoto_sm_solop.txt", ["solve", "tsukamoto", "--problem", "sm-solop"]),
            ("solve_tsukamoto_sm_molop.txt", ["solve", "tsukamoto", "--problem", "sm-molop"]),
        ],
    )
    def test_report_matches_golden(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_report_matches((GOLDEN / golden).read_text(), out, num_tol=0.05)

    @pytest.mark.parametrize("problem", ["sm-solop", "sm-molop"])
    def test_tsukamoto_report_bytes(self, capsys, problem):
        golden = GOLDEN / f"solve_tsukamoto_{problem.replace('-', '_')}.txt"
        code, out, _ = run_cli(capsys, "solve", "tsukamoto", "--problem", problem)
        assert code == 0
        assert out == golden.read_text()

    def test_repeat_invocations_byte_identical(self, capsys):
        argv = ["solve", "pr", "--problem", "case-molop", "--codebook", "paper-hma"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "pr", "--problem", "case-solop", "--codebook", "paper-hma",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[6].startswith("SS1,overall,0.46,1.20,5.03,6.71")
        assert lines[-1] == "ranking,=,SS2,>,SS3,>,SS4,>,SS1"


class TestExportFou:
    def test_codebook_polygon_count_and_vertices(self, capsys):
        code, out, _ = run_cli(capsys, "export-fou", "--codebook", "paper-hma", "--out", "-")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,curve,x1,mu1,x2,mu2,x3,mu3,x4,mu4"
        assert len(lines) == 1 + 10  # 5 words x 2 curves
        assert lines[1] == "VP,UMF,0.0000,0.0000,0.0000,1.0000,2.0400,1.0000,3.8400,0.0000"

    def test_solop_consequent_vertices(self, capsys):
        code, out, _ = run_cli(
            capsys, "export-fou", "--problem", "case-solop", "--codebook", "paper-hma", "--out", "-"
        )
        assert code == 0
        first = out.strip().splitlines()[1]
        assert first.startswith("SS1:overall,UMF,")
        xs = [float(v) for v in first.split(",")[2::2]]
        mus = [float(v) for v in first.split(",")[3::2]]
        assert xs == pytest.approx([0.46, 1.2, 5.03, 6.71], abs=0.005)
        assert mus == [0.0, 1.0, 1.0, 0.0]

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "fous.csv"
        code, _, _ = run_cli(capsys, "export-fou", "--codebook", "paper-ia", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().count("\n") == 11

    def test_export_twice_identical(self, capsys):
        _, a, _ = run_cli(capsys, "export-fou", "--codebook", "paper-hma", "--out", "-")
        _, b, _ = run_cli(capsys, "export-fou", "--codebook", "paper-hma", "--out", "-")
        assert a == b


class TestSample:
    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (p1, p2):
            code, _, _ = run_cli(
                capsys, "sample", "--spec", "paper-endpoints", "--n", "50", "--seed", "7",
                "--out", str(p),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_spec_file_sampling(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("endpoints v1\nscale = 0 10\nword VP\nleft = 0 0\nright = 2 3\n")
        code, out, _ = run_cli(
            capsys, "sample", "--spec", str(spec), "--n", "5", "--seed", "7", "--out", "-"
        )
        assert code == 0
        pair_lines = [l for l in out.splitlines() if l.startswith("pair =")]
        assert len(pair_lines) == 5
        for line in pair_lines:
            l, r = line.split("=")[1].split()
            assert float(l) == 0.0
            assert 2.0 <= float(r) <= 3.0


class TestUserFiles:
    def test_solve_with_custom_codebook_and_problem_files(self, capsys, tmp_path):
        codebook = tmp_path / "vocab.txt"
        codebook.write_text(
            """codebook v1
scale = 0 10
encoder = external

word LO
umf = 0 0 3 5
lmf = 0 0 2.5 4 0.9

word HI
umf = 5 7 10 10
lmf = 6 7.5 10 10 0.9
"""
        )
        problem = tmp_path / "problem.txt"
        problem.write_text(
            f"""problem v1
name = custom
codebook = {codebook}
terms = LO HI
objective = score max
ranking = score
rule a | LO LO | auto
rule b | HI HI | auto
alternative weak | rules = a | input = LO LO
alternative strong | rules = b | input = HI HI
"""
        )
        code, out, _ = run_cli(capsys, "solve", "pr", "--problem", str(problem))
        assert code == 0
        assert "ranking = strong > weak" in out
        code, out, _ = run_cli(capsys, "solve", "two-tuple", "--problem", str(problem))
        assert code == 0
        assert "ranking = strong > weak" in out


class TestExitCodes:
    def test_usage_error_engine_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "solve", "tsukamoto", "--problem", "case-solop")
        assert code == 2
        assert "usage error" in err

    def test_usage_error_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "solve", "pr", "--problem", "sm-toy")
        assert code == 2

    def test_data_error_unknown_codebook(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "pr", "--problem", "case-solop", "--codebook", "nope"
        )
        assert code == 3
        assert "data error" in err

    def test_data_error_unknown_problem(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "pr", "--problem", "nope")
        assert code == 3

    def test_engine_error_strict_scale(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "two-tuple", "--problem", "sm-toy", "--strict-scale"
        )
        assert code == 4
        assert "engine error" in err

    def test_data_error_non_numeric_lmf(self, capsys, tmp_path):
        text = format_codebook(load_codebook("paper-hma"))
        lmf = next(line for line in text.splitlines() if line.startswith("lmf = "))
        path = tmp_path / "bad.txt"
        path.write_text(text.replace(lmf, "lmf = 0 1 2 zz", 1))
        code, _, err = run_cli(capsys, "solve", "pr", "--problem", "case-solop", "--codebook", str(path))
        assert code == 3
        assert err.startswith("lingopt: data error:")
        assert err.count("\n") == 1

    @staticmethod
    def assert_one_line(err: str, kind: str):
        assert err.startswith(f"lingopt: {kind} error:")
        assert err.count("\n") == 1

    @staticmethod
    def problem_file(tmp_path, objective: str) -> str:
        path = tmp_path / "problem.txt"
        path.write_text(
            "problem v1\nterms = VP P A G VG\n"
            f"objective = {objective}\n"
            "rule r | A G | auto\n"
            "alternative x | rules = r | input = A G\n"
        )
        return str(path)

    def test_data_error_non_integer_slots(self, capsys, tmp_path):
        problem = self.problem_file(tmp_path, "o max slots a-b")
        code, _, err = run_cli(capsys, "solve", "pr", "--problem", problem)
        assert code == 3
        self.assert_one_line(err, "data")

    def test_data_error_slot_past_antecedents(self, capsys, tmp_path):
        problem = self.problem_file(tmp_path, "o max slots 1-9")
        code, _, err = run_cli(capsys, "solve", "pr", "--problem", problem)
        assert code == 3
        self.assert_one_line(err, "data")

    def test_data_error_huge_slot_range(self, capsys, tmp_path):
        # refused before the range is expanded into a list of slots
        problem = self.problem_file(tmp_path, "o max slots 1-100000000000")
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", problem)
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")

    def test_data_error_non_finite_codebook_number(self, capsys, tmp_path):
        # a NaN centroid passes every centroid check, so it must not load
        text = format_codebook(load_codebook("paper-hma"))
        centroid = next(line for line in text.splitlines() if line.startswith("centroid = "))
        path = tmp_path / "bad.txt"
        path.write_text(text.replace(centroid, "centroid = nan nan 5", 1))
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", "case-solop", "--codebook", str(path))
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")

    @pytest.mark.parametrize("line", ["scale = 0 inf", "left = 0 nan"])
    def test_data_error_non_finite_endpoint_number(self, capsys, tmp_path, line):
        spec = tmp_path / "spec.txt"
        lines = ["endpoints v1", "scale = 0 10", "word VP", "left = 0 0", "right = 2 3"]
        key = line.split(" = ")[0]
        spec.write_text("\n".join(line if old.startswith(key) else old for old in lines) + "\n")
        code, out, err = run_cli(capsys, "sample", "--spec", str(spec), "--out", "-")
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")

    def test_data_error_non_integer_codebook_seed(self, capsys, tmp_path):
        text = format_codebook(load_codebook("paper-hma"))
        path = tmp_path / "bad.txt"
        path.write_text(text.replace("encoder = HMA", "encoder = HMA\nseed = x", 1))
        code, _, err = run_cli(capsys, "solve", "pr", "--problem", "case-solop", "--codebook", str(path))
        assert code == 3
        self.assert_one_line(err, "data")

    def test_data_error_export_fou_out_is_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "export-fou", "--codebook", "paper-hma", "--out", str(tmp_path))
        assert code == 3
        self.assert_one_line(err, "data")

    def test_data_error_sample_out_is_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sample", "--spec", "paper-endpoints", "--out", str(tmp_path))
        assert code == 3
        self.assert_one_line(err, "data")

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "1e-9", "inf"])
    def test_usage_error_tsukamoto_step(self, capsys, step):
        # 1e-9 would enumerate about 1e9 points: refused before any is made
        code, out, err = run_cli(capsys, "solve", "tsukamoto", "--problem", "sm-solop", "--step", step)
        assert code == 2
        assert out == ""
        self.assert_one_line(err, "usage")

    @pytest.mark.parametrize(
        "flag,value", [("--n", "0"), ("--n", str(MAX_SAMPLE_N + 1)), ("--seed", "-1")]
    )
    def test_usage_error_sample_flags(self, capsys, flag, value):
        # refused before any draw; a large --n is never run here
        code, out, err = run_cli(capsys, "sample", "--spec", "paper-endpoints", flag, value, "--out", "-")
        assert code == 2
        assert out == ""
        self.assert_one_line(err, "usage")

    @pytest.mark.parametrize("grid", [2, MAX_GRID + 1])
    def test_usage_error_grid_out_of_range(self, capsys, grid):
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", "case-solop", "--grid", str(grid))
        assert code == 2
        assert out == ""
        self.assert_one_line(err, "usage")

    def test_levels_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "pr", "--problem", "case-solop", "--levels", "5"])
        assert exc.value.code == 2

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "unknown-engine", "--problem", "x"])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        # the child process imports the package from this checkout, installed or not
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-m", "lingopt.cli", "solve", "two-tuple", "--problem", "case-solop"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0
        assert "ranking = SS2 > SS3 > SS4 > SS1" in out.stdout
