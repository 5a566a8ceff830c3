"""The CLI contract under generated input: problem, codebook and end-point
texts, mutated line by line, and flag values, some of which argparse cannot
parse, fed through ``cli.main``.

Every run must end with a documented exit code (0, 2 usage, 3 data, 4
engine), write nothing to stderr or exactly one ``lingopt:`` line, and let
no exception escape and no warning through.
"""

import contextlib
import io
import itertools
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lingopt.cli import MAX_GRID, MAX_SAMPLE_N, main
from lingopt.codebook import load_codebook
from lingopt.problems import case_molop, case_solop

from conftest import format_codebook, format_problem

ENDPOINTS = """endpoints v1
scale = 0 10
word VP
left = 0 0
right = 2 3
word A
left = 2 3
right = 7 8
"""

CUSTOM_PROBLEM = """problem v1
name = custom
codebook = {codebook}
terms = VP P A G VG
objective = core max slots 1-2
objective = rest min slots 3
ranking = core rest
rule a | VP P A | auto auto-word
rule b | G VG A | A G
alternative weak | rules = a b | input = VP P A
alternative strong | rules = b | input = G VG G
"""

TOKENS = st.sampled_from([
    "", "VP", "A", "VG", "ZZ", "auto", "auto-word", "|", "=", "0", "-1", "1e308", "nan", "inf",
    "1.5", "10", "1-3", "3-1", "0-0", "slots", "max", "min", "word", "rule", "alternative",
    "objective", "ranking", "codebook", "paper-ia", "umf", "lmf", "left", "right", "scale",
]) | st.text("AGPV -|=.0123456789", max_size=8)


@st.composite
def generated_problems(draw, codebook) -> str:
    """A problem file from the grammar: 0-3 antecedents per rule, known and
    unknown words, ``auto`` consequents, slot specs and inputs of any length."""
    words = st.sampled_from(["VP", "P", "A", "G", "VG", "ZZ"])
    n, q = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    lines = ["problem v1", f"codebook = {draw(st.sampled_from(['paper-hma', 'paper-ia', codebook]))}",
             "terms = VP P A G VG"]
    for k in range(q):
        slots = draw(st.sampled_from(["", f" slots 1-{n}", " slots 1", " slots 2,1"]))
        lines.append(f"objective = o{k} {draw(st.sampled_from(['max', 'min']))}{slots}")
    consequents = words | st.sampled_from(["auto", "auto-word"])
    rules = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    for rule in rules:
        antecedents = " ".join(draw(st.lists(words, min_size=n, max_size=n)))
        lines.append(f"rule {rule} | {antecedents} | {' '.join(draw(st.lists(consequents, min_size=q, max_size=q)))}")
    for i in range(draw(st.integers(1, 2))):
        chosen = " ".join(draw(st.lists(st.sampled_from(rules), min_size=1, max_size=3, unique=True)))
        size = draw(st.sampled_from([n, n, n, 0, n + 1]))
        lines.append(f"alternative a{i} | rules = {chosen} | input = {' '.join(draw(st.lists(words, min_size=size, max_size=size)))}")
    return "\n".join(lines) + "\n"


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` with a few lines deleted, repeated, swapped, cut short or
    with one of their tokens replaced."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "repeat", "swap", "cut", "token", "token", "insert"]))
        if op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif op == "insert":
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=5))))
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    """A fresh directory per example: files are written, never overwritten."""
    root = tmp_path_factory.mktemp("fuzz")
    return (root / str(i) for i in itertools.count())


def optional(flag: str, values):
    return st.just([]) | values.map(lambda v: [flag, str(v)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_holds_for_generated_input(fuzz_dirs, data):
    fuzz_dir = next(fuzz_dirs)
    fuzz_dir.mkdir()
    codebook = fuzz_dir / "codebook.txt"
    base = data.draw(st.sampled_from(["paper-hma", "paper-ia"]))
    codebook.write_text(data.draw(mutated(format_codebook(load_codebook(base)))))
    problem = fuzz_dir / "problem.txt"
    template = data.draw(generated_problems(str(codebook)) | st.sampled_from([
        format_problem(case_solop()), format_problem(case_molop()), CUSTOM_PROBLEM.format(codebook=codebook),
    ]))
    problem.write_text(data.draw(mutated(template)))
    spec = fuzz_dir / "endpoints.txt"
    spec.write_text(data.draw(mutated(ENDPOINTS)))

    problems = st.sampled_from([str(problem), str(problem), "case-solop", "case-molop", "sm-toy", "nope"])
    codebooks = st.sampled_from([str(codebook), str(codebook), "paper-hma", "paper-ia", str(fuzz_dir / "missing")])
    outs = st.sampled_from(["-", str(fuzz_dir / "out.txt"), str(fuzz_dir), str(fuzz_dir / "no" / "out.txt")])
    # values argparse cannot parse too: "x", "1.5"
    grid = optional("--grid", st.sampled_from([-1, 0, 2, 3, 7, 201, 1001, MAX_GRID + 1, "x", "1.5"]))
    command = data.draw(st.sampled_from(["pr", "two-tuple", "tsukamoto", "export-fou", "sample"]))
    if command in ("pr", "two-tuple"):
        argv = ["solve", command, "--problem", data.draw(problems)]
        argv += data.draw(optional("--codebook", codebooks) if command == "pr" else st.just([]))
        argv += data.draw(grid) + data.draw(optional("--format", st.sampled_from(["table", "csv"])))
        argv += data.draw(st.sampled_from([[], ["--strict-scale"]]))
    elif command == "tsukamoto":
        argv = ["solve", "tsukamoto", "--problem", data.draw(st.sampled_from(["sm-solop", "sm-molop", str(problem)]))]
        argv += data.draw(optional("--step", st.sampled_from(["0", "-1", "nan", "inf", "1e-9", "0.05", "0.1", "x"])))
    elif command == "export-fou":
        argv = ["export-fou", "--out", data.draw(outs)]
        argv += data.draw(optional("--codebook", codebooks)) + data.draw(optional("--problem", problems))
    else:
        argv = ["sample", "--spec", data.draw(st.sampled_from([str(spec), str(spec), "paper-endpoints"]))]
        argv += data.draw(optional("--n", st.sampled_from([-1, 0, 1, 3, MAX_SAMPLE_N + 1, "1.5"])))
        argv += data.draw(optional("--seed", st.sampled_from([-1, 0, 7, 2**40, "x"])))
        argv += ["--out", data.draw(outs)]

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    assert err.getvalue() == "" or (err.getvalue().startswith("lingopt: ") and err.getvalue().count("\n") == 1)
    assert (code == 0) == (err.getvalue() == ""), argv
    assert not caught, [str(w.message) for w in caught]
