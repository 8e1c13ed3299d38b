"""Model ingestion: the byte decoder of a 0-1 "matrix" against json.loads.

`cli.load_model` reads a matrix spelled as bare 0s and 1s straight from the
text's bytes and sends every other text through `json.loads`.  Each text
here must load to the model, or fail with the exception class and message,
that `json.loads` followed by `build_model` gives.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsphase import cli, model as model_mod
from kmsphase.errors import ConfigParseError

A3 = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
MODEL = {"matrix": A3, "energies": [2.0, 3.0, 1.5], "labels": ["a", "b", "c"]}


def _reference(text: str) -> model_mod.SystemModel:
    """load_model as json.loads followed by build_model."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"cannot read model: {exc}") from exc
    if not isinstance(raw, dict) or "matrix" not in raw or "energies" not in raw:
        raise ConfigParseError('model JSON needs "matrix" and "energies"')
    return model_mod.build_model(raw["matrix"], raw["energies"], raw.get("labels"))


def _outcome(load, text: str):
    try:
        got = load(text)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    assert got.matrix.dtype == np.int8
    return got.matrix.tolist(), got.energies.tolist(), got.labels


def _with_whitespace(compact: str, rng: np.random.Generator) -> str:
    """compact JSON with random JSON whitespace between its tokens.

    Every token of a 0-1 matrix is one character; the rest of the text is
    kept whole, so strings are not split.
    """
    start = compact.index("[")
    end = compact.index("]]") + 2
    gaps = ["", " ", "\t", "\n", "\r\n", "  \n\t"]
    spaced = "".join(ch + gaps[rng.integers(len(gaps))] for ch in compact[start:end])
    return compact[:start] + gaps[rng.integers(len(gaps))] + spaced + compact[end:]


_TAB_CRLF = json.dumps(MODEL, indent="\t").replace("\n", "\r\n")


def _matrix_text(matrix: str, energies: str = "[2, 3]") -> str:
    return f'{{"matrix": {matrix}, "energies": {energies}}}'


# (id, text, whether the decoder reads its matrix)
_TEXTS = [
    ("compact", json.dumps(MODEL, separators=(",", ":")), True),
    ("default", json.dumps(MODEL), True),
    ("indent-2", json.dumps(MODEL, indent=2), True),
    ("tab-crlf", _TAB_CRLF, True),
    ("matrix-last", json.dumps({"energies": [2, 3], "matrix": [[1, 1], [1, 0]]}), True),
    ("m-1", _matrix_text("[[1]]", "[2]"), True),
    ("zero-row", _matrix_text("[[1,1],[0,0]]"), True),
    ("non-ascii-label", json.dumps({**MODEL, "labels": ["é", "ß", "∞"]}, ensure_ascii=False), True),
    ("nested-after", json.dumps({**MODEL, "meta": {"matrix": [[1]]}}), True),
    # spellings the decoder leaves to json
    *[(f"entry-{entry}", _matrix_text(f"[[{entry},1],[1,1]]"), False)
      for entry in ("1.0", "true", "-0", "1e0", "01", "2")],
    ("ragged", _matrix_text("[[1,1],[1]]"), False),
    ("not-square", _matrix_text("[[1,1]]"), False),
    ("empty", _matrix_text("[]", "[]"), False),
    ("empty-row", _matrix_text("[[]]", "[]"), False),
    ("long-first-row", _matrix_text("[[" + ",".join(["1"] * 5000) + "]]"), False),
    ("label-holds-matrix",
     json.dumps({"labels": ['"matrix": [[1]]', "b"], "matrix": [[1, 1], [1, 0]],
                 "energies": [2, 3]}), True),
    ("escaped-key", '{"m\\u0061trix": [[1,1],[1,0]], "energies": [2, 3]}', False),
    ("key-and-escaped-key", '{"matrix": [[1]], "m\\u0061trix": [[1,1],[1,0]], "energies": [2, 3]}',
     False),
    ("escaped-key-and-key", '{"m\\u0061trix": [[1]], "matrix": [[1,1],[1,0]], "energies": [2, 3]}',
     True),
    ("key-ends-in-matrix", '{"x\\"matrix": [[1]], "matrix": [[1,1],[1,0]], "energies": [2, 3]}',
     False),
    ("nested-before", json.dumps({"meta": {"matrix": [[1]]}, **MODEL}), False),
    ("nested-only", '{"meta": {"matrix": [[1]]}, "energies": [2]}', False),
    ("duplicate-small-first", '{"matrix": [[1]], "matrix": [[1,1],[1,0]], "energies": [2, 3]}',
     False),
    ("duplicate-small-last", '{"matrix": [[1,1],[1,0]], "matrix": [[1]], "energies": [2]}', False),
    ("nan-energy", _matrix_text("[[1,1],[1,0]]", "[2, NaN]"), False),
    ("nan-in-label", json.dumps({**MODEL, "labels": ["NaN", "b", "c"]}), False),
    ("top-level-list", "[" + json.dumps(MODEL) + "]", False),
    ("non-json-whitespace", _matrix_text("[[1,\f1],[1,0]]"), False),
    ("empty-text", "", False),
    ("blank-text", " \n", False),
    # syntax errors after the matrix: json's message and offsets
    ("trailing-comma", _matrix_text("[[1,1],[1,0]]", "[2, 3],"), False),
    ("missing-comma", '{"matrix": [[1,1],[1,0]] "energies": [2, 3]}', False),
    ("extra-bracket", '{"matrix": [[1,1],[1,0]]], "energies": [2, 3]}', False),
    ("garbage-after", json.dumps(MODEL, indent=2) + "\n  x", False),
    ("unclosed", json.dumps(MODEL, indent=2)[:-1], False),
]


@pytest.mark.parametrize("text", [pytest.param(t, id=i) for i, t, _ in _TEXTS])
def test_load_model_matches_json(text):
    want = _outcome(_reference, text)
    assert _outcome(lambda t: cli.load_model(None, t), text) == want


@pytest.mark.parametrize("text", [pytest.param(t, id=i) for i, t, _ in _TEXTS])
def test_model_file_matches_json(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8", newline="")
    want = _outcome(_reference, path.read_text(encoding="utf-8"))  # CRLF read as LF
    assert _outcome(lambda _: cli.load_model(str(path), None), text) == want


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text", [pytest.param(t, id=i) for i, t, _ in _TEXTS])
def test_model_json_option_matches_json(monkeypatch, text):
    got = _run(["analyze", "--model-json", text])
    monkeypatch.setattr(cli, "load_model", lambda path, inline: _reference(inline))
    assert got == _run(["analyze", "--model-json", text])


@pytest.mark.parametrize("text,decoded", [pytest.param(t, d, id=i) for i, t, d in _TEXTS])
def test_decoder_takes_the_texts_it_can_read(monkeypatch, text, decoded):
    """build_model gets an array from the decoder, and json's lists otherwise,
    so the decoder cannot quietly fall back on the texts it is meant for."""
    seen = []
    real = model_mod.build_model

    def spy(matrix, *args):
        seen.append(type(matrix))
        return real(matrix, *args)

    monkeypatch.setattr(model_mod, "build_model", spy)
    with contextlib.suppress(Exception):
        cli.load_model(None, text)
    if decoded:
        assert seen == [np.ndarray]
    else:
        assert np.ndarray not in seen


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_random_matrices_and_whitespace(m, seed, with_labels):
    rng = np.random.default_rng(seed)
    doc = {"matrix": rng.integers(0, 2, size=(m, m)).tolist(),
           "energies": (1.5 + rng.random(m)).tolist()}
    if with_labels:
        doc["labels"] = [f"x{i}" for i in range(m)]
    text = _with_whitespace(json.dumps(doc, separators=(",", ":")), rng)
    raw = cli._loads_model(text)
    assert isinstance(raw["matrix"], np.ndarray) and raw["matrix"].dtype == np.int8
    assert raw["matrix"].tolist() == doc["matrix"]
    assert {k: v for k, v in raw.items() if k != "matrix"} == {
        k: v for k, v in json.loads(text).items() if k != "matrix"}
    assert _outcome(lambda t: cli.load_model(None, t), text) == _outcome(_reference, text)
