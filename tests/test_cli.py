import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import assert_report_matches, format_codebook, format_problem
from lingopt.cli import MAX_GRID, MAX_SAMPLE_N, main
from lingopt.codebook import MAX_FILE_BYTES, load_codebook
from lingopt.problems import case_solop

GOLDEN = Path(__file__).parent / "golden"

# sha256 of every `solve pr` report on the case studies, pinned from the
# engine's output so that a change to the numerics cannot alter a printed
# byte unnoticed
PR_REPORT_SHA256 = {
    ("case-solop", "paper-hma", 201, "table"): "33ead112e171624e0a68fc1cb45446f6527da71a24bf4ca7a2857ca76d772d72",
    ("case-solop", "paper-hma", 201, "csv"): "639a78e6d80d27593205ca46bc74b5cf28f562c8fe12440e27c4645c93002829",
    ("case-solop", "paper-hma", 1001, "table"): "3f753b7b891f0a42a83cb608c5d7a84897b64d1ca4d2a860ae02a5e0358baac5",
    ("case-solop", "paper-hma", 1001, "csv"): "dd896ebab51ba99fa48084aee7968e74a232e395aa93abbd989a5fe8a86d3d90",
    ("case-solop", "paper-hma", 10001, "table"): "76d26dce4a9d0bcfb1cbd43be926c457d644d6feb202733ee320606bec74c7c7",
    ("case-solop", "paper-hma", 10001, "csv"): "cf51fb5781e23e96abb4b0d371631ea36846d64561befadaa3dadc32cf4fb2e0",
    ("case-solop", "paper-ia", 201, "table"): "92e99f8718a52867bd0d726de31f5f9cd6f4e5bdd8275328f6da4e908b1d2091",
    ("case-solop", "paper-ia", 201, "csv"): "719a749de6c26bc30e901e76182870a77031addfeaff7aa5959ae081cd7f3281",
    ("case-solop", "paper-ia", 1001, "table"): "b460477018be26269fd1c9dc5e90ac40c7f2fa69726711bfe4f0ddfbcb68a7ec",
    ("case-solop", "paper-ia", 1001, "csv"): "a44a2ee82eb96b8b1ba2be07dd45bb10dd5f4c7e06858cfccca71d801016708c",
    ("case-solop", "paper-ia", 10001, "table"): "03bc5efe8cd7172db6b56605e0e02c7fe1c2ee0e0a87ee108b680a08efed872b",
    ("case-solop", "paper-ia", 10001, "csv"): "3e792a39c5cf88ddef21cd61e078fdfa263f806e8b59d2593ebde72784235e51",
    ("case-molop", "paper-hma", 201, "table"): "43905e2ced3b294fa34bbca28c251a7464a8b7359eefab3666a9d4e167c8e1f1",
    ("case-molop", "paper-hma", 201, "csv"): "cd81a1ba119b243236cce8ce4c021459524f61e79a3b7279b358778659a48528",
    ("case-molop", "paper-hma", 1001, "table"): "83248261bbd84fb570291fd9f35d98aec77e45d1522d75faa3711bfa983b2173",
    ("case-molop", "paper-hma", 1001, "csv"): "e58359c253de0f5fb41a119e4d39b19345143fedb83b1e8a86888ee0c94c57e1",
    ("case-molop", "paper-hma", 10001, "table"): "4e8139c678b3c4992390642301f25e88e460d67e8d4b731f3147c17020738afd",
    ("case-molop", "paper-hma", 10001, "csv"): "97471c4d3bf5b224aa0ba71061f4688ca31452382a638f9c9883d75335340568",
    ("case-molop", "paper-ia", 201, "table"): "57a30baaebc8bdda16cf7575e193cd67ab4c2552f4d402a66fb16684a128f6f2",
    ("case-molop", "paper-ia", 201, "csv"): "95137409e9e4c2564102bf216f374a5ec3ede05ac174b84b6d33a0082b6260a3",
    ("case-molop", "paper-ia", 1001, "table"): "848deafc7c27bad681dfc9387e53f1f9bd32c39c2bea896408714caead319d30",
    ("case-molop", "paper-ia", 1001, "csv"): "f0e34efacb5a81c9d39b508059eeb703f1f43c135561a3c99c6c7259f87761d6",
    ("case-molop", "paper-ia", 10001, "table"): "67f9387fc1d8abe16b03c085403226139a1f763cf32b5d1e8678c5a33e4063d0",
    ("case-molop", "paper-ia", 10001, "csv"): "49c94b05d7c77977b0eaedaee329294ed39c5f8ebaa2fc2cbf17b5ac8ac23cea",
}
# sha256 of the `solve two-tuple` reports, which the goldens check only to a
# tolerance, and of the `solve tsukamoto --format csv` reports, which no golden
# covers; keyed by (engine, problem, format)
REPORT_SHA256 = {
    ("two-tuple", "case-solop", "table"): "c0827c6f1c519c8bd991c9525419424fa3a22c83eb1081bc47b1620b5321609d",
    ("two-tuple", "case-solop", "csv"): "7df9e933feb3a36e809074b0ca249a2c858b38438a77089526f12a567f873f38",
    ("two-tuple", "case-molop", "table"): "c7b233533841984d2f47f2fb1f7c1f03dd348d2579af00df786a0f5033ada637",
    ("two-tuple", "case-molop", "csv"): "7817dded74b5de12a20f9e7653dfd4de41b50884f43ec3e6d7bdea0209d0db94",
    ("two-tuple", "sm-toy", "table"): "19a519dd21739183ccfd4fc0a9007e77c26669d38800840ac894823b419da661",
    ("two-tuple", "sm-toy", "csv"): "265fef405322d77fa6b1b9bad1f0ecff068725bf2af964864a93862fb565b29d",
    ("tsukamoto", "sm-solop", "csv"): "eaa85b896f97fa2dfe3ccf82c60712cde550ff801e05764c9a43c23b18706c21",
    ("tsukamoto", "sm-molop", "csv"): "a351c9466678701e7aee97629805001ee8ab75b078804eb78cbce4c21e9958d8",
}
EXPORT_FOU_CASE_MOLOP_SHA256 = "4466205a023c94c9827737aa671d1c05583970d6236acb53351bef978e12e7fe"


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

    @pytest.mark.parametrize("problem,codebook,grid,fmt", sorted(PR_REPORT_SHA256))
    def test_pr_report_bytes(self, capsys, problem, codebook, grid, fmt):
        code, out, _ = run_cli(capsys, "solve", "pr", "--problem", problem, "--codebook", codebook,
                               "--grid", str(grid), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PR_REPORT_SHA256[problem, codebook, grid, fmt]

    @pytest.mark.parametrize("engine,problem,fmt", sorted(REPORT_SHA256))
    def test_report_bytes(self, capsys, engine, problem, fmt):
        code, out, _ = run_cli(capsys, "solve", engine, "--problem", problem, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[engine, problem, fmt]

    def test_export_fou_problem_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "export-fou", "--codebook", "paper-hma", "--problem", "case-molop",
                               "--out", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_FOU_CASE_MOLOP_SHA256

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

    @pytest.mark.parametrize(
        "text,argv",
        [
            (format_problem(case_solop()), ["solve", "pr", "--problem", "{path}"]),
            (format_codebook(load_codebook("paper-hma")),
             ["solve", "pr", "--problem", "case-solop", "--codebook", "{path}"]),
            ("endpoints v1\nscale = 0 10\nword VP\nleft = 0 0\nright = 2 3\n",
             ["sample", "--spec", "{path}", "--n", "5", "--seed", "7", "--out", "-"]),
        ],
        ids=["problem", "codebook", "spec"],
    )
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, text, argv):
        # one path for both runs: a report may print the file's path
        path, outs = tmp_path / "in.txt", []
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + text.encode())
            code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_undecodable_byte_is_counted_from_the_file_start(self, capsys, tmp_path):
        # the byte-order mark's three bytes count toward the offset in the message
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfproblem v1\n\xff\n")
        code, _, err = run_cli(capsys, "solve", "pr", "--problem", str(path))
        assert code == 3
        assert "byte 14 cannot be decoded" in err

    def test_centroid_ends_stay_on_the_scale(self, capsys, tmp_path):
        # each word's lower membership is one spike at a scale end, so the
        # centroid ends sit on the ends of the samples, where EKM's running
        # sums used to overshoot: cl printed as -0.00 and B loaded with cr > 10
        codebook = tmp_path / "vocab.txt"
        codebook.write_text(
            "codebook v1\nscale = 0 10\n"
            "word A\numf = 0 0 0 10\nlmf = 0 0 0 0 1\n"
            "word B\numf = 0 10 10 10\nlmf = 10 10 10 10 1\n"
        )
        problem = tmp_path / "problem.txt"
        problem.write_text(
            "problem v1\nterms = A B\nobjective = o max\n"
            "rule r1 | A | auto\nalternative x | rules = r1 | input = A\n"
        )
        for grid in ("201", "1001"):
            code, out, _ = run_cli(capsys, "solve", "pr", "--problem", str(problem), "--codebook",
                                   str(codebook), "--grid", grid)
            assert code == 0
            row = next(line.split() for line in out.splitlines() if line.startswith("x "))
            assert row[-4] == "0.00"  # cl
        words = load_codebook(str(codebook)).words
        assert [w.centroid.cl for w in words] >= [0.0, 0.0]
        assert max(w.centroid.cr for w in words) == 10.0


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
        code, out, err = run_cli(
            capsys, "solve", "two-tuple", "--problem", "sm-toy", "--strict-scale"
        )
        assert code == 4
        assert out == ""
        assert err == "lingopt: engine error: 2 output(s) protrude past the term scale (strict mode)\n"

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

    @pytest.mark.parametrize("antecedents,slots", [("A G", "1,3-1"), ("A G VG", "5-3,1")])
    def test_data_error_reversed_slot_range(self, capsys, tmp_path, antecedents, slots):
        # a range written high to low once expanded to nothing, and the rest of the spec solved
        problem = tmp_path / "problem.txt"
        problem.write_text(
            f"problem v1\nterms = VP P A G VG\nobjective = o max slots {slots}\n"
            f"rule r | {antecedents} | auto\nalternative x | rules = r | input = {antecedents}\n"
        )
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", str(problem))
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert repr(slots) in err

    def test_repeated_slot_solves(self, capsys, tmp_path):
        # a repeated slot weights that slot, so it stays legal
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", self.problem_file(tmp_path, "o max slots 1,1"))
        assert (code, err) == (0, "")
        row = next(line.split() for line in out.splitlines() if line.startswith("x "))
        assert row[-1] == "A"  # the average of A with itself

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
        path.write_text(text.replace("scale = 0 10", "scale = 0 10\nseed = x", 1))
        code, _, err = run_cli(capsys, "solve", "pr", "--problem", "case-solop", "--codebook", str(path))
        assert code == 3
        self.assert_one_line(err, "data")
        assert "seed must be an integer" in err

    ENDPOINTS = "endpoints v1\nscale = 0 10\nword VP\nleft = 0 0\nright = 2 3\n"

    @classmethod
    def edited_input(cls, tmp_path, kind: str, old: str, new: str) -> list[str]:
        """argv that reads an end-point file, the paper-hma codebook file or
        the case-solop problem file with the first ``old`` replaced by ``new``."""
        text = {
            "endpoints": cls.ENDPOINTS,
            "codebook": format_codebook(load_codebook("paper-hma")),
            "problem": format_problem(case_solop()),
        }[kind]
        assert old in text
        path = tmp_path / f"{kind}.txt"
        path.write_text(text.replace(old, new, 1))
        if kind == "endpoints":
            return ["sample", "--spec", str(path), "--out", "-"]
        if kind == "problem":
            return ["solve", "pr", "--problem", str(path), "--codebook", "paper-hma"]
        return ["solve", "pr", "--problem", "case-solop", "--codebook", str(path)]

    @pytest.mark.parametrize(
        "kind,old,new",
        [
            ("endpoints", "left = 0 0", "left = 3 1"),
            ("endpoints", "scale = 0 10", "scale = 5 1"),
            ("codebook", "scale = 0 10", "scale = 10 0"),
            ("codebook", "centroid = 1.29 1.52", "centroid = 1.52 1.29"),
        ],
        ids=["endpoints-left", "endpoints-scale", "codebook-scale", "codebook-centroid"],
    )
    def test_data_error_reversed_interval(self, capsys, tmp_path, kind, old, new):
        code, out, err = run_cli(capsys, *self.edited_input(tmp_path, kind, old, new))
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")
        assert new.split(" = ")[0] in err  # names the field

    @pytest.mark.parametrize(
        "kind,old,new",
        [
            ("codebook", "centroid = 1.29", "centroidd = 9 9 9\ncentroid = 1.29"),  # unknown in a word
            ("codebook", "umf = 0.0 0.0 2.04", "umf = 0 0 2 3\numf = 0.0 0.0 2.04"),  # repeated in a word
            ("codebook", "scale = 0 10", "scale = 0 10\nencoder = HMA\nencoder = IA"),  # repeated in the header
            ("endpoints", "right = 2 3", "right = 2 3\nmiddle = 1 2"),  # unknown in a word
            ("endpoints", "left = 0 0", "left = 0 0\nleft = 0 1"),  # repeated in a word
            ("problem", "ranking = overall", "ranking = overall\nrankings = overall"),  # unknown in the header
            ("problem", "terms = VP P A G VG", "terms = VP P A G VG\nterms = VP P A"),  # repeated in the header
            ("problem", "rules = SS1 |", "rules = SS1 | weight = 1 |"),  # unknown in an alternative
            ("problem", "rules = SS1 |", "rules = SS1 | rules = SS1 |"),  # repeated in an alternative
        ],
        ids=["codebook-unknown", "codebook-repeated", "codebook-header-repeated",
             "endpoints-unknown", "endpoints-repeated", "problem-unknown", "problem-repeated",
             "problem-alternative-unknown", "problem-alternative-repeated"],
    )
    def test_data_error_unknown_or_repeated_key(self, capsys, tmp_path, kind, old, new):
        code, out, err = run_cli(capsys, *self.edited_input(tmp_path, kind, old, new))
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")

    def test_data_error_repeated_endpoint_word(self, capsys, tmp_path):
        # a second `word VP` would otherwise be sampled again under another
        # seed; a codebook file follows the same record-name rule
        for kind, old, new in [
            ("endpoints", "right = 2 3\n", "right = 2 3\nword VP\nleft = 0 0\nright = 2 3\n"),
            ("codebook", "word P\n", "word VP\n"),
        ]:
            code, out, err = run_cli(capsys, *self.edited_input(tmp_path, kind, old, new))
            assert code == 3
            assert out == ""
            self.assert_one_line(err, "data")
            assert "'VP'" in err

    def test_data_error_rule_without_antecedents(self, capsys, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_text(
            "problem v1\nterms = VP P A G VG\nobjective = o max\n"
            "rule R1 |  | VG\nalternative A | rules = R1 | input =\n"
        )
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", str(path), "--codebook", "paper-hma")
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")

    @pytest.mark.parametrize("objectives,rule", [
        ("objective = o max\n", "rule r | A VG | G\n"),
        ("objective = o max\nobjective = p min\n", "rule r | A VG | G G\n"),
    ], ids=["input-word", "rule-word"])
    def test_data_error_word_not_a_term(self, capsys, tmp_path, objectives, rule):
        # VG is a codebook word but not one of the terms the 2-tuple engine indexes
        path = tmp_path / "problem.txt"
        path.write_text("problem v1\nterms = VP P A G\n" + objectives + rule
                        + "alternative x | rules = r | input = A VG\n")
        code, out, err = run_cli(capsys, "solve", "two-tuple", "--problem", str(path))
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert "alternative 'x'" in err and "'VG'" in err

    @pytest.mark.parametrize("rule,inputs", [("A G | G", "A Q"), ("A Q | G", "A G")],
                             ids=["input-word", "rule-word"])
    def test_data_error_word_not_in_the_codebook(self, capsys, tmp_path, rule, inputs):
        path = tmp_path / "problem.txt"
        path.write_text("problem v1\nterms = VP P A G VG\nobjective = o max\n"
                        f"rule r | {rule}\nalternative x | rules = r | input = {inputs}\n")
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", str(path))
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert "alternative 'x'" in err and "'Q'" in err

    @pytest.mark.parametrize("terms", ["VP P P G VG", ""], ids=["repeated", "empty"])
    @pytest.mark.parametrize("engine", ["pr", "two-tuple"])
    def test_data_error_bad_terms(self, capsys, tmp_path, engine, terms):
        # the terms are the 2-tuple scale, so every engine refuses a bundle without a usable one
        path = tmp_path / "problem.txt"
        path.write_text(f"problem v1\nterms = {terms}\nobjective = o max\n"
                        "rule r | A G | G\nalternative x | rules = r | input = A G\n")
        code, out, err = run_cli(capsys, "solve", engine, "--problem", str(path))
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert "terms" in err

    def test_error_codebook_past_the_cell_budget(self, capsys, tmp_path):
        # 26 words at the largest grid would need two 26 x MAX_GRID arrays
        # (416 MB); the product is refused before either is allocated
        codebook = tmp_path / "codebook.txt"
        codebook.write_text("codebook v1\n" + "".join(
            f"word W{i}\numf = {0.3 * i} {0.3 * i + 0.5} {0.3 * i + 0.5} {0.3 * i + 1}\n"
            f"lmf = {0.3 * i + 0.25} {0.3 * i + 0.5} {0.3 * i + 0.5} {0.3 * i + 0.75} 0.5\n"
            for i in range(26)
        ))
        problem = tmp_path / "problem.txt"
        problem.write_text(
            "problem v1\nterms = W0 W1\nobjective = o max\n"
            "rule r | W0 | W0\nalternative a | rules = r | input = W0\n"
        )
        argv = ["solve", "pr", "--problem", str(problem), "--codebook", str(codebook), "--grid", str(MAX_GRID)]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err.startswith("lingopt: data error:") and err.count("\n") == 1
        assert "more than the budget" in err
        assert peak < 20e6

    def test_error_codebook_past_the_similarity_matrix_budget(self, capsys, tmp_path):
        # 5001 words fit the membership arrays at the default grid, but their
        # 5001 x 5001 similarity matrix is refused before anything is allocated
        codebook = tmp_path / "codebook.txt"
        codebook.write_text("codebook v1\n" + "".join(
            f"word W{i}\numf = 1 2 3 4\nlmf = 1.5 2 3 3.5 0.5\n" for i in range(5001)
        ))
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "export-fou", "--codebook", str(codebook), "--out", "-")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert "5001 words" in err and "more than the budget" in err
        assert peak < 50e6

    @pytest.mark.parametrize("command", [
        ["export-fou", "--out", "-"], ["solve", "pr", "--problem", "case-solop"],
    ], ids=["export-fou", "solve-pr"])
    def test_data_error_word_without_mass_on_the_load_grid(self, capsys, tmp_path, command):
        # no point of the default 1001-point grid lies inside A's support
        codebook = tmp_path / "codebook.txt"
        codebook.write_text(
            "codebook v1\nscale = 0 10\n"
            "word A\numf = 5.0001 5.0002 5.0003 5.0004\nlmf = 5.0001 5.0002 5.0003 5.0004 0.5\n"
        )
        code, out, err = run_cli(capsys, *command, "--codebook", str(codebook))
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert "word 'A' has no mass on the 1001-point grid over [0, 10]" in err

    @staticmethod
    def ranking_problem(tmp_path, objectives, ranking, x_consequents, y_consequents) -> str:
        """Two alternatives fired at 1 by the same input; only their
        consequents differ, so each objective's scores tie exactly or not."""
        path = tmp_path / "ranking.txt"
        path.write_text(
            "problem v1\nterms = VP P A G VG\n"
            + "".join(f"objective = {o}\n" for o in objectives)
            + f"ranking = {ranking}\n"
            f"rule rx | A A | {x_consequents}\n"
            f"rule ry | A A | {y_consequents}\n"
            "alternative x | rules = rx | input = A A\n"
            "alternative y | rules = ry | input = A A\n"
        )
        return str(path)

    @pytest.mark.parametrize("engine", ["pr", "two-tuple"])
    def test_ranking_uses_every_ranking_objective(self, capsys, tmp_path, engine):
        # tied on f1 and f2; the third ranking objective decides
        problem = self.ranking_problem(
            tmp_path, ["f1 max", "f2 max", "f3 max"], "f1 f2 f3", "A A P", "A A G"
        )
        code, out, err = run_cli(capsys, "solve", engine, "--problem", problem)
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "ranking = y > x"

    @pytest.mark.parametrize("engine", ["pr", "two-tuple"])
    def test_ranking_tie_break_keeps_its_own_direction(self, capsys, tmp_path, engine):
        # tied on f1; f2 is minimised, so the smaller f2 ranks first
        problem = self.ranking_problem(tmp_path, ["f1 max", "f2 min"], "f1 f2", "A G", "A P")
        code, out, err = run_cli(capsys, "solve", engine, "--problem", problem)
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "ranking = y > x"

    @pytest.mark.parametrize("ranking", ["f1 f1", ""], ids=["duplicate", "empty"])
    def test_data_error_bad_ranking_line(self, capsys, tmp_path, ranking):
        problem = self.ranking_problem(tmp_path, ["f1 max", "f2 max"], ranking, "A G", "A P")
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", problem)
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")

    def test_data_error_export_fou_out_is_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "export-fou", "--codebook", "paper-hma", "--out", str(tmp_path))
        assert code == 3
        self.assert_one_line(err, "data")

    def test_data_error_sample_out_is_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sample", "--spec", "paper-endpoints", "--out", str(tmp_path))
        assert code == 3
        self.assert_one_line(err, "data")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "pr", "--problem", "{path}"],
            ["solve", "pr", "--problem", "case-solop", "--codebook", "{path}"],
            ["sample", "--spec", "{path}", "--out", "-"],
            ["export-fou", "--codebook", "{path}", "--out", "-"],
        ],
        ids=["problem", "codebook", "spec", "export-fou-codebook"],
    )
    def test_data_error_file_not_utf8(self, capsys, tmp_path, argv):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"problem v1\n\xff\xfe bad\n")
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")
        assert str(path) in err

    def test_usage_error_export_fou_without_a_source(self, capsys):
        code, out, err = run_cli(capsys, "export-fou", "--out", "-")
        assert code == 2
        assert out == ""
        self.assert_one_line(err, "usage")

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

    def test_levels_flag_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", "case-solop", "--levels", "5")
        assert code == 2
        assert out == ""
        self.assert_one_line(err, "usage")

    def test_argparse_usage_exit(self, capsys):
        code, out, err = run_cli(capsys, "solve", "unknown-engine", "--problem", "x")
        assert code == 2
        assert out == ""
        self.assert_one_line(err, "usage")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "pr", "--problem", "case-solop", "--grid", "x"],
            ["sample", "--spec", "paper-endpoints", "--n", "1.5", "--out", "-"],
            ["solve", "pr", "--grid", "201"],
            [],
        ],
        ids=["grid-not-int", "n-not-int", "missing-problem", "no-command"],
    )
    def test_usage_error_unparseable_flags(self, capsys, argv):
        # argparse's own errors are one line too, not its usage block
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        self.assert_one_line(err, "usage")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lingopt solve")

    # two words; on a grid of 3, 5 or 7 points the output FOU of ``L`` has
    # upper membership above 0 at x = 0 only, where its lower membership is 0
    COARSE_CODEBOOK = (
        "codebook v1\nscale = 0 10\n"
        "word L\numf = 0 0 0.51 1.34\nlmf = 0 0.23 0.41 1.11 0.77\n"
        "word H\numf = 4 6 10 10\nlmf = 5 6 10 10 1.0\n"
    )

    @pytest.mark.parametrize("grid", ["3", "5", "7"])
    def test_single_mass_point_centroid(self, capsys, tmp_path, grid):
        codebook = tmp_path / "codebook.txt"
        codebook.write_text(self.COARSE_CODEBOOK)
        problem = tmp_path / "problem.txt"
        problem.write_text(
            "problem v1\nterms = L H\nobjective = o max\n"
            "rule R1 | L | L\nalternative A | rules = R1 | input = L\n"
        )
        argv = ["solve", "pr", "--problem", str(problem), "--codebook", str(codebook), "--grid", grid]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        # both ends of the centroid are the one grid point with mass
        assert out.splitlines()[-3].split()[-4:] == ["0.00", "0.00", "0.00", "L"]

    def test_data_error_codebook_scale_too_large(self, capsys, tmp_path):
        # at a scale end of 1e308, EKM sums overflow to inf and nan
        codebook = tmp_path / "codebook.txt"
        codebook.write_text(
            "codebook v1\nscale = 0 1e308\n"
            "word L\numf = 1e307 2e307 3e307 4e307\nlmf = 2e307 2e307 3e307 3e307 0.5\n"
            "word H\numf = 5e307 6e307 7e307 8e307\nlmf = 6e307 6e307 7e307 7e307 0.5\n"
        )
        problem = tmp_path / "problem.txt"
        problem.write_text(
            "problem v1\nterms = L H\nobjective = o max\n"
            "rule R1 | L | H\nalternative A | rules = R1 | input = L\n"
        )
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", str(problem), "--codebook", str(codebook))
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")
        assert "scale" in err

    def test_data_error_endpoint_scale_too_large(self, capsys, tmp_path):
        # at a scale end of 1e308, hi - lo of the uniform draw overflows
        spec = tmp_path / "spec.txt"
        spec.write_text("endpoints v1\nscale = -1e308 1e308\nword W\nleft = -1e308 1e308\nright = 1e308 1e308\n")
        code, out, err = run_cli(capsys, "sample", "--spec", str(spec), "--out", "-")
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")
        assert "scale" in err

    def test_data_error_stale_centroid_cache(self, capsys, tmp_path):
        argv = self.edited_input(tmp_path, "codebook", "centroid = 1.29 1.52", "centroid = 1.0 1.52")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")
        assert "cached centroid" in err

    REPEAT_BASE = (
        "problem v1\nname = twice\ncodebook = paper-hma\nterms = VP P A G VG\n"
        "objective = o max\nobjective = p min\nranking = o\n"
        "rule r1 | A G | A P\nrule r2 | G G | G A\n"
        "alternative x | rules = r1 r2 | input = A G\n"
        "alternative y | rules = r2 | input = G G\n"
    )

    @pytest.mark.parametrize(
        "old,new",
        [
            ("alternative y", "alternative x"),
            ("terms = VP P A G VG\n", "terms = VP P A G VG\nterms = VP P A G VG\n"),
            ("codebook = paper-hma\n", "codebook = paper-hma\ncodebook = paper-ia\n"),
            ("name = twice\n", "name = twice\nname = again\n"),
            ("ranking = o\n", "ranking = o\nranking = o\n"),
            ("| input = A G", "| input = A G | input = G G"),
            ("| rules = r2 |", "| rules = r2 | rules = r1 |"),
            ("rules = r1 r2", "rules = r1 r2 r1"),
        ],
        ids=["alternative-label", "terms", "codebook", "name", "ranking", "alternative-input",
             "alternative-rules", "rule-in-alternative"],
    )
    @pytest.mark.parametrize("engine", ["pr", "two-tuple"])
    def test_data_error_repeated_problem_entry(self, capsys, tmp_path, engine, old, new):
        path = tmp_path / "problem.txt"
        path.write_text(self.REPEAT_BASE.replace(old, new, 1))
        code, out, err = run_cli(capsys, "solve", engine, "--problem", str(path))
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")

    def test_repeat_base_solves(self, capsys, tmp_path):
        # unchanged, it solves: the ``objective`` key is the one that may repeat
        path = tmp_path / "problem.txt"
        path.write_text(self.REPEAT_BASE)
        for engine in ("pr", "two-tuple"):
            code, out, err = run_cli(capsys, "solve", engine, "--problem", str(path))
            assert (code, err) == (0, "")
            assert out.splitlines()[-1].startswith("ranking = ")

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("alternative x |", "alternative |", "alternative labels"),
            ("alternative x |", "alternative x z |", "alternative labels"),
            ("rule r1 |", "rule |", "rule labels"),
            ("rule r1 |", "rule r 1 |", "rule labels"),
            ("alternative y | rules = r2 |", "alternative y |", "alternative 'y'"),
            ("rules = r2", "rules =", "alternative 'y'"),
            ("objective = p min", "objective = p sideways", "objective 'p'"),
        ],
        ids=["empty-alternative-label", "two-word-alternative-label", "empty-rule-label",
             "two-word-rule-label", "no-rules-field", "empty-rules", "objective-direction"],
    )
    def test_data_error_bad_label_rule_base_or_objective(self, capsys, tmp_path, old, new, named):
        # a label is one report cell, so a blank or two-word label would shift the csv columns
        path = tmp_path / "problem.txt"
        path.write_text(self.REPEAT_BASE.replace(old, new, 1))
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", str(path), "--format", "csv")
        assert code == 3
        assert out == ""
        self.assert_one_line(err, "data")
        assert named in err

    def test_auto_consequent_without_mass_on_the_grid_solves(self, capsys, tmp_path):
        # on a 3-point grid the ``auto`` average of A and B has no mass; only
        # its vertices enter the output, whose centroid is defined
        codebook = tmp_path / "codebook.txt"
        codebook.write_text(
            "codebook v1\nscale = 0 10\n"
            "word C\numf = 0 0 3 4.5\nlmf = 0 0 2.5 4 0.8\n"
            "word A\numf = 4.8 4.9 5.1 5.2\nlmf = 4.9 5.0 5.0 5.1 0.8\n"
            "word B\numf = 9.7 9.8 10 10\nlmf = 9.8 9.9 10 10 0.8\n"
        )
        problem = tmp_path / "problem.txt"
        problem.write_text(
            "problem v1\nterms = C A B\nobjective = o max\n"
            "rule r1 | A B | auto\nrule r2 | A B | C\n"
            "alternative x | rules = r1 r2 | input = A B\n"
        )
        code, out, err = run_cli(
            capsys, "solve", "pr", "--problem", str(problem), "--codebook", str(codebook), "--grid", "3"
        )
        assert (code, err) == (0, "")
        row = next(line.split() for line in out.splitlines() if line.startswith("x "))
        assert row[-4:] == ["5.00", "5.00", "5.00", "A"]

    @staticmethod
    def run_module(module: str, *argv: str, **kwargs) -> subprocess.CompletedProcess:
        # the child process imports the package from this checkout, installed or not
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env=env,
            **kwargs,
        )

    def test_console_entry_point(self):
        out = self.run_module("lingopt.cli", "solve", "two-tuple", "--problem", "case-solop")
        assert out.returncode == 0
        assert "ranking = SS2 > SS3 > SS4 > SS1" in out.stdout

    def test_package_runs_as_module(self):
        out = self.run_module("lingopt", "solve", "two-tuple", "--problem", "case-solop")
        assert (out.returncode, out.stderr) == (0, "")
        assert "ranking = SS2 > SS3 > SS4 > SS1" in out.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this system")
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "pr", "--problem", "/dev/zero"],
            ["solve", "pr", "--problem", "case-solop", "--codebook", "/dev/zero"],
            ["sample", "--spec", "/dev/zero", "--out", "-"],
        ],
        ids=["problem", "codebook", "spec"],
    )
    def test_data_error_endless_file(self, argv):
        import resource

        def cap_memory():
            # a read without a bound then ends in a MemoryError, not in the host's memory
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = self.run_module("lingopt", *argv, preexec_fn=cap_memory, timeout=120)
        assert (out.returncode, out.stdout) == (3, "")
        self.assert_one_line(out.stderr, "data")
        assert f"larger than {MAX_FILE_BYTES} bytes" in out.stderr

    @pytest.mark.parametrize("size,refused", [(MAX_FILE_BYTES, False), (MAX_FILE_BYTES + 1, True)])
    def test_data_error_file_past_the_size_bound(self, capsys, tmp_path, size, refused):
        path = tmp_path / "big.txt"
        with path.open("wb") as f:
            f.truncate(size)  # sparse: no disk blocks behind the zero bytes
        code, out, err = run_cli(capsys, "solve", "pr", "--problem", str(path))
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert (f"larger than {MAX_FILE_BYTES} bytes" in err) is refused

    @pytest.mark.parametrize(
        "kind,message",
        [
            ("fifo", "is a FIFO or socket, not a regular file"),
            ("directory", "Is a directory"),
            ("empty", "problem file must start with 'problem v1'"),
            ("symlink-loop", "no such problem fixture or file"),
        ],
        ids=["fifo", "directory", "empty", "symlink-loop"],
    )
    def test_data_error_file_kinds(self, capsys, tmp_path, kind, message):
        path = tmp_path / "input"
        argv = ("solve", "pr", "--problem", str(path))
        if kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no named pipes on this system")
            os.mkfifo(path)
            # no process writes to the pipe, so an ``open`` of it would wait
            # forever: the child is stopped after 30 s, which fails the test
            done = self.run_module("lingopt", *argv, timeout=30)
            code, out, err = done.returncode, done.stdout, done.stderr
        else:
            if kind == "directory":
                path.mkdir()
            elif kind == "empty":
                path.write_bytes(b"")
            else:
                path.symlink_to(tmp_path / "other")
                (tmp_path / "other").symlink_to(path)
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        self.assert_one_line(err, "data")
        assert message in err
