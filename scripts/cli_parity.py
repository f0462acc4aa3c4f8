"""Compare the qcorr command line of two source trees byte for byte.

    python scripts/cli_parity.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts. The script
runs one fixed list of invocations of `python -m qcorr.cli` with PYTHONPATH
set to each in turn and compares stdout, stderr and the exit code:

- `run` (both formats, and `--decomposition spectral`) and `validate` (both
  formats) on every bundled scenario file, and on a valid variant of the
  quantum separable file whose scenario echo holds the float spellings the
  report writer must match: `-0.0` imaginary parts and entries such as
  `1e-300` and `5e-324` in the state, an effect and a decomposition vector,
  and on one seeded valid d = 16 file built like the benchmark's large-d
  inputs (Haar-rotated factor PVMs on C^4 (x) C^4, a random full-rank state
  and an explicit decomposition with 32 components)
- `paper-example` on every id in both formats: the defaults, two sets of
  seeded parameters, `--decomposition spectral`, an out-of-range value and
  an unknown key
- `run` and `validate` on malformed variants of two bundled files, one per
  fault the scenario parser names. Variants of the quantum separable file
  have bools, numeric strings and nulls as entries, mixed and ragged rows,
  pairs that are not two long, an integer beyond the float range in a
  pair, a decomposition with two faults and a wrong schema. Variants of
  the classical fuzzy file have bad state entries (a string, a bool, null,
  an integer beyond the float range), a short state and one that is not a
  list, kernel entries that are null or a pair, short rows, rows that are
  not lists, a negative weight, a `false` joint-kernel entry and a short
  joint kernel. A file that is not valid UTF-8, a file nested too deeply
  for the JSON decoder (100000 `[` then `]`), a missing file and bad
  command-line parameters complete the list
- `selftest --trials 50` at seeds 1, 7, 11 and 42 in both formats, which
  cover the observables and states the suites build for themselves,
  `selftest --trials 10` at seeds 2 and 9 in both formats, the benchmark's
  op size: one chunk per suite, in which the suites whose trials differ in
  shape pad them to the chunk's largest shape, `selftest --seed 5
  --trials 200` in both formats, whose suites run in more than one stacked
  chunk, and `selftest --seed 3 --trials 129` in both formats, whose last
  chunk holds one trial, so that every stacked step also runs on a batch
  of one

Both trees read the same input files: the bundled ones of HEAD_SRC and the
variants this script writes to a temporary directory. It prints one line per
difference and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FORMATS = ("table", "json")
SEED = 13
LARGE_DIM = 16


def _variant(base: dict, edit) -> dict:
    doc = copy.deepcopy(base)
    edit(doc)
    return doc


def _malformed(base: dict) -> dict[str, dict]:
    """Variants of the bundled separable-mixture file, each with one fault
    (the last with two)."""

    def set_entry(value):
        return lambda doc: doc["state"][0].__setitem__(0, value)

    def components(doc) -> list:
        return next(iter(doc["decompositions"].values()))

    def two_faults(doc):
        first = components(doc)
        first[0]["vector"] = [[2.0, 0.0]] + first[0]["vector"][1:]
        first[1]["weight"] = "0.3"

    return {
        "entry_true": _variant(base, set_entry(True)),
        "entry_string": _variant(base, set_entry("0.5")),
        "entry_null": _variant(base, set_entry(None)),
        "pair_with_bool": _variant(base, set_entry([True, 0.0])),
        "pair_of_three": _variant(base, set_entry([0.4, 0.0, 0.0])),
        "pair_beyond_float": _variant(base, set_entry([10**400, 0.0])),
        "row_mixing_numbers_and_pairs": _variant(
            base, lambda doc: doc["state"][0].__setitem__(1, 0.0)
        ),
        "ragged_row": _variant(base, lambda doc: doc["state"][0].pop()),
        "effect_entry_true": _variant(
            base, lambda doc: doc["observables"][0]["effects"][0][0].__setitem__(0, True)
        ),
        "vector_entry_null": _variant(
            base, lambda doc: components(doc)[0]["vector"].__setitem__(0, None)
        ),
        "bad_norm_then_bad_weight": _variant(base, two_faults),
        "wrong_schema": _variant(base, lambda doc: doc.__setitem__("schema", "qcorr/0")),
    }


def _float_spellings(base: dict) -> dict:
    """A valid variant of the separable-mixture file: each new entry is within
    eps of the file's, so it still validates and runs."""

    def edit(doc):
        state = doc["state"]
        state[0][0] = [0.4, -0.0]
        state[0][1], state[1][0] = [1e-300, 5e-324], [1e-300, -5e-324]
        state[2][3] = [-0.0, -0.0]
        effect = doc["observables"][0]["effects"][0]
        effect[0][1], effect[1][0] = [5e-324, -0.0], [5e-324, 0.0]
        vector = next(iter(doc["decompositions"].values()))[0]["vector"]
        vector[0], vector[1] = [1.0, -0.0], [1e-300, 0.0]

    return _variant(base, edit)


def _pairs(array: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _large(seed: int, dim: int) -> dict:
    """A valid quantum scenario on C^n (x) C^n, dim = n * n, built the way the
    benchmark's large-d sweep builds its inputs: two Haar-rotated rank-one
    PVMs, one per factor, a random full-rank state and one explicit
    decomposition with 2 * dim components, mixed from the spectral ones by a
    random isometry. Written at full `repr` precision, so it reconstructs."""
    rng = np.random.default_rng(seed)

    def ginibre(n: int) -> np.ndarray:
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    side = int(round(dim**0.5))
    eye = np.eye(side)
    observables = []
    for name, left in (("a", True), ("b", False)):
        q, r = np.linalg.qr(ginibre(side))
        unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        projectors = [np.outer(column, column.conj()) for column in unitary.T]
        effects = [np.kron(p, eye) if left else np.kron(eye, p) for p in projectors]
        labels = [f"{name}{index}" for index in range(side)]
        observables.append({"labels": labels, "effects": [_pairs(e) for e in effects]})
    matrix = ginibre(dim)
    matrix = matrix @ matrix.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    state = matrix / np.trace(matrix).real
    values, vectors = np.linalg.eigh(state)
    scaled = np.sqrt(values)[:, None] * vectors.T
    isometry = np.linalg.qr(ginibre(2 * dim))[0][:, :dim]
    rows = isometry @ scaled
    weights = np.einsum("na,na->n", rows.conj(), rows).real
    rows = rows / np.sqrt(weights)[:, None]
    components = [
        {"weight": weight, "vector": _pairs(row)} for weight, row in zip(weights.tolist(), rows)
    ]
    return {
        "schema": "qcorr/1",
        "name": f"haar-pair-d{dim}",
        "mode": "quantum",
        "dim": dim,
        "state": _pairs(state),
        "observables": observables,
        "joint": "auto-commuting",
        "decompositions": {"isometry": components},
    }


def _malformed_classical(base: dict) -> dict[str, dict]:
    """Variants of the bundled fuzzy classical file, each with one fault."""

    def set_key(key, value):
        return lambda doc: doc.__setitem__(key, value)

    def set_state_entry(value):
        return lambda doc: doc["state"].__setitem__(0, value)

    def set_kernel_row(index, row):
        return lambda doc: doc["observables"][index]["kernel"].__setitem__(0, row)

    return {
        "classical_state_string": _variant(base, set_state_entry("1.0")),
        "classical_state_bool": _variant(base, set_state_entry(True)),
        "classical_state_null": _variant(base, set_state_entry(None)),
        "classical_state_beyond_float": _variant(base, set_state_entry(10**400)),
        "classical_state_short": _variant(base, set_key("state", [1.0])),
        "classical_state_not_a_list": _variant(base, set_key("state", 1.0)),
        "kernel_entry_null": _variant(base, set_kernel_row(0, [None, 0.3])),
        "kernel_entry_pair": _variant(base, set_kernel_row(1, [[0.7, 0.0], 0.3])),
        "kernel_row_short": _variant(base, set_kernel_row(0, [1.0])),
        "kernel_row_not_a_list": _variant(base, set_kernel_row(0, 0.7)),
        "kernel_row_negative": _variant(base, set_kernel_row(0, [1.2, -0.2])),
        "joint_kernel_entry_false": _variant(
            base, lambda doc: doc["joint"]["kernel"][1].__setitem__(1, False)
        ),
        "joint_kernel_short": _variant(base, lambda doc: doc["joint"]["kernel"].pop()),
    }


def _example_params(rng: random.Random) -> dict[str, list[str]]:
    """Two seeded parameter strings per example that takes parameters."""

    def four() -> str:
        cuts = sorted(rng.random() for _ in range(3))
        w = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 1.0 - cuts[2]]
        return ",".join(f"w{i}={v!r}" for i, v in enumerate(w, 1))

    return {
        "i": [four(), four()],
        "ii": [four(), four()],
        "iii": [f"a={0.5 * rng.random()!r}", f"b={0.5 * rng.random()!r}"],
        "appendix-px": [f"w={rng.random()!r}", f"w={rng.random()!r}"],
    }


OUT_OF_RANGE = {
    "i": "w1=-0.1,w2=0.6,w3=0.3,w4=0.2",
    "ii": "w1=0.9,w2=0.3",
    "iii": "a=0.7",
    "iii-mixed": "a=0.25",
    "appendix": "w=0.5",
    "appendix-px": "w=1.5",
}


def invocations(head_src: Path, workdir: Path) -> list[list[str]]:
    data = head_src / "qcorr" / "data"
    files = sorted(data.glob("*.json"))
    if not files:
        raise SystemExit(f"no bundled scenario files under {data}")

    def read(name: str) -> dict:
        return json.loads((data / name).read_text(encoding="utf-8"))

    spellings = workdir / "float_spellings.json"
    spellings.write_text(json.dumps(_float_spellings(read("separable.json"))), encoding="utf-8")
    large = workdir / f"large_d{LARGE_DIM}.json"
    large.write_text(json.dumps(_large(SEED, LARGE_DIM)), encoding="utf-8")
    calls = []
    for path in files + [spellings, large]:
        for fmt in FORMATS:
            calls.append(["run", str(path), "--format", fmt])
            calls.append(["run", str(path), "--decomposition", "spectral", "--format", fmt])
            calls.append(["validate", str(path), "--format", fmt])

    seeded = _example_params(random.Random(SEED))
    ids = ("i", "ii", "iii", "iii-mixed", "appendix", "appendix-px")
    for example in ids:
        variants = [[], ["--decomposition", "spectral"]]
        variants += [["--params", p] for p in seeded.get(example, [])]
        variants += [["--params", OUT_OF_RANGE[example]], ["--params", "zz=1"]]
        for extra in variants:
            for fmt in FORMATS:
                calls.append(["paper-example", example, *extra, "--format", fmt])
    for fmt in FORMATS:
        calls.append(["paper-example", "iv", "--format", fmt])
        calls.append(["paper-example", "i", "--params", "w1", "--format", fmt])

    for seed in ("1", "7", "11", "42"):
        for fmt in FORMATS:
            calls.append(["selftest", "--seed", seed, "--trials", "50", "--format", fmt])
    for seed in ("2", "9"):
        for fmt in FORMATS:
            calls.append(["selftest", "--seed", seed, "--trials", "10", "--format", fmt])
    for fmt in FORMATS:
        calls.append(["selftest", "--seed", "5", "--trials", "200", "--format", fmt])
        calls.append(["selftest", "--seed", "3", "--trials", "129", "--format", fmt])

    variants = _malformed(read("separable.json"))
    variants.update(_malformed_classical(read("classical_fuzzy.json")))
    malformed = []
    for name, doc in variants.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        malformed.append(path)
    not_utf8 = workdir / "not_utf8.json"
    latin1 = (data / "separable.json").read_bytes().replace(b"separable", b"s\xe9parable", 1)
    not_utf8.write_bytes(latin1)
    too_deep = workdir / "too_deep.json"
    too_deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    malformed += [not_utf8, too_deep, workdir / "missing.json"]
    for path in malformed:
        for verb in ("run", "validate"):
            for fmt in FORMATS:
                calls.append([verb, str(path), "--format", fmt])
    return calls


def _run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "qcorr.cli", *argv], env=env, capture_output=True
    )
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base_src, head_src = (Path(a).resolve() for a in args)
    for src in (base_src, head_src):
        if not (src / "qcorr" / "cli.py").is_file():
            print(f"no qcorr sources under {src}", file=sys.stderr)
            return 2
    differences = 0
    with tempfile.TemporaryDirectory() as workdir:
        calls = invocations(head_src, Path(workdir))
        for call in calls:
            base, head = _run(base_src, call), _run(head_src, call)
            for field, b, h in zip(("exit code", "stdout", "stderr"), base, head):
                if b != h:
                    differences += 1
                    print(f"differs in {field}: qcorr {' '.join(call)}")
    print(f"{len(calls)} invocations, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
