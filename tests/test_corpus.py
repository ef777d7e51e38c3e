"""The reference runs under tests/corpus, rerun and compared with their committed outputs.

Exit codes, streams, headers, integers, INF and masks must match exactly;
floats must match to their file's tolerance in corpus_runs.TOLERANCE.
After a change that moves values on purpose, `python tests/regen_corpus.py`
says which moved and by how much, and `--write` commits the new outputs.
"""

import dataclasses

import numpy as np
import pytest

import simulheat.cli
import simulheat.doubling
from corpus_runs import CASES, beyond_tolerance, compare, load_case, run_case

# the cases that read an eigenbasis
SIGNED = [name for name in CASES if name not in ("fatcantor", "malformed-T")]


@pytest.mark.parametrize("name", CASES)
def test_rerun_matches_the_corpus(name, tmp_path):
    moved = beyond_tolerance(compare(load_case(name), run_case(name, tmp_path)))
    assert not moved, "\n".join(f"{m[1]}: {m[2]} -> {m[3]}" for m in moved[:20])


def test_the_comparison_holds_floats_to_tolerance_and_all_else_exactly():
    code, stdout, stderr, files = load_case("specineq-sweep")
    head, row, *rest = files["constants.csv"].splitlines()
    *fields, constant = row.split(",")

    def moved(new_row):
        edited = dict(files, **{"constants.csv": "\n".join([head, new_row, *rest]) + "\n"})
        return beyond_tolerance(compare((code, stdout, stderr, files), (code, stdout, stderr, edited)))

    assert not moved(",".join([*fields, repr(float(constant) * (1 + 1e-12))]))
    assert moved(",".join([*fields, repr(float(constant) * (1 + 1e-6))]))
    assert moved(row.replace(",1,", ",2,"))  # a mode count
    assert beyond_tolerance(compare((code, stdout, stderr, files), (3, stdout, stderr, files)))


@pytest.mark.parametrize("half", [1.0, -1.0], ids=["half", "other-half"])
def test_no_artifact_reads_a_mode_sign(half, tmp_path, monkeypatch):
    """Each wall mode is fixed only up to sign, so negating a seeded half of
    every wall basis's columns, wherever eigendecompose is imported, leaves
    every artifact byte for byte as it was. The two halves together negate
    every mode once."""
    rng = np.random.default_rng(0)
    flipped_walls = set()

    def flipping(eigendecompose):
        def flipped(op):
            basis = eigendecompose(op)
            n = basis.grid.n
            signs = np.ones(n)
            signs[rng.permutation(n)[: n // 2]] = -1.0
            signs *= half
            flipped_walls.add(basis.bc.value)
            return dataclasses.replace(basis, vectors=basis.vectors * signs)
        return flipped

    for name in SIGNED:
        expected = run_case(name, tmp_path / name / "plain")
        with monkeypatch.context() as m:
            for module in (simulheat.doubling, simulheat.cli):
                m.setattr(module, "eigendecompose", flipping(module.eigendecompose))
            assert run_case(name, tmp_path / name / "flipped") == expected, name
    assert flipped_walls == {"dirichlet", "neumann"}
