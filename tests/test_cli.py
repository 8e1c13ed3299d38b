from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from kmsphase import cli, critical, errors, partition, star, words
from kmsphase.cli import dumps, main
from kmsphase.critical import AbscissaEstimate
from kmsphase.model import SystemModel
from kmsphase.states import QState, TypeTag

from conftest import coexistence_models, full_model, golden_mean_model, random_irreducible

GOLDEN = {"matrix": [[0, 1], [1, 1]], "energies": [math.e, math.e]}
FULL2 = {"matrix": [[1, 1], [1, 1]], "energies": [2.0, 2.0]}


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN))
    return str(path)


@pytest.fixture
def full2_file(tmp_path):
    path = tmp_path / "full2.json"
    path.write_text(json.dumps(FULL2))
    return str(path)


class TestAnalyze:
    def test_scipy_not_loaded(self, tmp_path):
        """numpy is the only runtime dependency: a fresh interpreter that
        analyzes a reducible model, and so finds its strong classes, loads
        no scipy module."""
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps({"matrix": [[1, 1, 0], [1, 0, 1], [0, 0, 1]],
                                    "energies": [2.0, 2.0, 2.0]}))
        code = (
            "import contextlib, io, json, sys\n"
            "import kmsphase\n"
            "from kmsphase import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    rc = cli.main(['analyze', '--model', {str(path)!r}])\n"
            "print(rc, json.loads(out.getvalue())['properties']['irreducible'],\n"
            "      sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "0 False []"

    def test_golden_mean_report(self, golden_file, capsys):
        assert main(["analyze", "--model", golden_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["properties"]["irreducible"] is True
        assert out["column_space"]["d"] == 2
        assert abs(out["critical"]["beta_c"] - 0.4812118) < 1e-6
        assert "settings" in out

    def test_deterministic_output(self, golden_file, capsys):
        main(["analyze", "--model", golden_file])
        first = capsys.readouterr().out
        main(["analyze", "--model", golden_file])
        second = capsys.readouterr().out
        assert first == second


class TestPartition:
    def test_single_beta_json(self, full2_file, capsys):
        assert main(["partition", "--model", full2_file, "--beta", "2.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["partition"]["z_total"] - 2.0) < 1e-12
        assert abs(out["geometric_bound"] - 2.0) < 1e-12

    def test_sweep_csv(self, full2_file, capsys):
        assert main(["partition", "--model", full2_file, "--sweep", "0.5:2.0:4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta,spectral_radius,z_total,regime"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[2] == "inf" and first[3] == "below"
        last = lines[-1].split(",")
        assert last[3] == "above" and float(last[2]) == pytest.approx(2.0)

    def test_sweep_evaluates_the_grid_in_one_call(self, full2_file, capsys, monkeypatch):
        calls = []
        evaluate = partition.evaluate

        def recorded(model, beta, **kwargs):
            calls.append(np.shape(beta))
            return evaluate(model, beta, **kwargs)

        monkeypatch.setattr(partition, "evaluate", recorded)
        assert main(["partition", "--model", full2_file, "--sweep", "0.5:2.0:4"]) == 0
        assert calls == [(4,)] and len(capsys.readouterr().out.splitlines()) == 5

    def test_divergent_prints_inf(self, golden_file, capsys):
        main(["partition", "--model", golden_file, "--beta", "0.2"])
        out = json.loads(capsys.readouterr().out)
        assert out["partition"]["z_total"] == "inf"
        assert out["partition"]["convergent"] is False


class TestKmsAndOa:
    def test_kms_above(self, full2_file, capsys):
        assert main(["kms", "--model", full2_file, "--beta", "2.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regime"]["kind"] == "above"
        assert len(out["regime"]["extreme_states"]) == 1

    def test_kms_ground(self, golden_file, capsys):
        assert main(["kms", "--model", golden_file, "--beta", "inf"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regime"]["kind"] == "ground"
        assert out["regime"]["simplex_dim"] == 1

    def test_oa_at_critical(self, full2_file, capsys):
        assert main(["oa", "--model", full2_file, "--beta", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["simplex"]["extreme_vectors"][0] == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_oa_scan(self, golden_file, capsys):
        assert main(["oa", "--model", golden_file, "--scan"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["scan"]["simplices"]) == 1

    def test_oa_five_equal_blocks(self, capsys):
        # a fixed space of dimension 5 at ln 2: one vector per full 2 x 2 block
        model = {"matrix": np.kron(np.eye(5, dtype=int), np.ones((2, 2), dtype=int)).tolist(),
                 "energies": [math.e] * 10}
        assert main(["oa", "--model-json", json.dumps(model), "--beta", "0.6931471805599453"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        vectors = json.loads(captured.out)["simplex"]["extreme_vectors"]
        assert len(vectors) == 5
        assert sorted(tuple(np.flatnonzero(v) // 2) for v in vectors) == [(b, b) for b in range(5)]


class TestCheckState:
    def test_bitstring_atoms(self, golden_file, tmp_path, capsys):
        state = {"beta": 2.0, "atom_masses": {"01": 0.25, "11": 0.75}}
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps(state))
        assert main(["check-state", "--model", golden_file, "--state", str(spath)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"]["subinvariant"] is True
        assert "decomposition" in out

    def test_unknown_point_rejected(self, golden_file, tmp_path, capsys):
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps({"beta": 2.0, "atom_masses": {"00": 1.0}}))
        assert main(["check-state", "--model", golden_file, "--state", str(spath)]) == 1

    @pytest.mark.parametrize("state,extra", [
        ({"beta": 1.0, "atom_masses": [math.nan, 1.0]}, []),
        ({"beta": 1.0, "atom_masses": [math.nan, 1.0]}, ["--exhaustive"]),
        ({"beta": math.nan, "atom_masses": [0.5, 0.5]}, []),
        ({"beta": 0.0, "atom_masses": [0.5, 0.5]}, []),
        ({"beta": -1.0, "atom_masses": [0.5, 0.5]}, []),
        ({"beta": -math.inf, "atom_masses": [0.5, 0.5]}, ["--exhaustive"]),
        ({"beta": 2.0, "atom_masses": [0.5, 0.5]}, ["--beta=0"]),
        ({"beta": 2.0, "atom_masses": [0.5, 0.5]}, ["--beta=-1"]),
        ({"beta": 2.0, "atom_masses": [0.5, 0.5]}, ["--beta=-inf"]),
        ({"beta": 2.0, "atom_masses": [0.5, 0.5]}, ["--beta=nan"]),
    ])
    def test_nan_input_exits_one(self, tmp_path, capsys, state, extra):
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps(state))     # json writes NaN, and reads it back
        model = json.dumps({"matrix": [[1, 1], [1, 0]], "energies": [2, 2]})
        argv = ["check-state", "--model-json", model, "--state", str(spath)] + extra
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestOracle:
    def test_csv_shells(self, full2_file, capsys):
        assert main(["oracle", "--model", full2_file, "--beta", "2.0", "--max-length", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,count,shell_sum"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[1]) for r in rows] == [1, 2, 4, 8]
        assert float(rows[2][2]) == pytest.approx(0.25)

    @pytest.mark.parametrize("extra", [["--source", "5"], ["--source", "-1"], ["--target", "7"],
                                       ["--max-length", "-3"]])
    def test_out_of_range_input_exits_one(self, golden_file, capsys, extra):
        argv = ["oracle", "--model", golden_file, "--beta", "1.0", "--max-length", "3", *extra]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def _oracle_reference(model_text, beta, max_length, source, target, cap):
    """The oracle CSV with one ``shell_sum`` per row, each enumerating its own tree."""
    model = cli.load_model(None, model_text)
    counts = words._shell_counts(model, max_length)
    sums = [words.shell_sum(model, beta, n, source=source, target=target, cap=cap)
            for n in range(max_length + 1)]
    return "n,count,shell_sum\n" + "".join(f"{n},{counts[n]},{s:.17g}\n"
                                           for n, s in enumerate(sums))


def _oracle_models():
    rng = np.random.default_rng(1701)
    model = random_irreducible(rng, 5, non_permutation=True, energy_range=(1.5, 4.0))
    full3 = {"matrix": [[1] * 3] * 3, "energies": [2.0, 2.5, 3.0]}
    random5 = {"matrix": model.matrix.tolist(), "energies": model.energies.tolist()}
    return [pytest.param(json.dumps(GOLDEN), 12, id="golden"),
            pytest.param(json.dumps(full3), 7, id="full3"),
            pytest.param(json.dumps(random5), 6, id="random5")]


class TestOracleMatchesPerRowShellSums:
    @pytest.mark.parametrize("text,max_length", _oracle_models())
    @pytest.mark.parametrize("source,target", [(None, None), (1, None), (None, 0), (0, 1)],
                             ids=["no-ends", "source", "target", "both"])
    def test_csv_bytes(self, capsys, text, max_length, source, target):
        for beta, length in ((0.7, max_length), (2.5, max_length), (1.0, 0), (1.0, 1)):
            argv = ["oracle", "--model-json", text, "--beta", repr(beta),
                    "--max-length", str(length)]
            argv += ["--source", str(source)] if source is not None else []
            argv += ["--target", str(target)] if target is not None else []
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            want = _oracle_reference(text, beta, length, source, target, words.WORD_CAP_DEFAULT)
            assert captured.out == want

    @pytest.mark.parametrize("cap", [1, 2, 4, 7, 8, 12, 13, 143, 144])
    def test_cap_names_first_shell_above_it(self, capsys, cap):
        # the cap bounds the running total of the golden mean's shells, 2, 5,
        # 10, 18, ... words up to 374 at length 10, whatever the source; the
        # error names the first total above the cap, as the shell_sum of
        # that row would
        argv = ["oracle", "--model-json", json.dumps(GOLDEN), "--beta", "1",
                "--max-length", "10", "--cap", str(cap), "--source", "1"]
        status = main(argv)
        captured = capsys.readouterr()
        try:
            want = _oracle_reference(json.dumps(GOLDEN), 1.0, 10, 1, None, cap)
        except errors.LengthTooLargeError as exc:
            assert status == 1
            assert captured.out == ""
            assert captured.err == f"error: {exc}\n"
        else:
            assert status == 0
            assert captured.out == want


@pytest.mark.parametrize("extra", [[], ["--source", "1"], ["--cap", "5"]],
                         ids=["plain", "source", "capped"])
def test_oracle_counts_shells_once(monkeypatch, capsys, extra):
    # one count applies the cap and gives the count column
    calls = []
    original = words._shell_counts

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(words, "_shell_counts", counted)
    main(["oracle", "--model-json", json.dumps(GOLDEN), "--beta", "1", "--max-length", "8", *extra])
    capsys.readouterr()
    assert len(calls) == 1


class TestStarCommand:
    def test_star_report(self, capsys):
        assert main(["star", "--levels", "8,16", "--head-count", "20000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["system"]["drop"] == 1
        assert out["system"]["normalization_condition_certified"] is True
        assert len(out["truncations"]) == 2
        assert out["truncations"][0]["beta_c"] < out["truncations"][1]["beta_c"] < 1.0
        s0, s1 = out["critical_states"]
        assert abs(s0["rho_q0"] - s1["rho_q0"]) > 1e-3

    def test_explicit_drop(self, capsys):
        # dropping one more term shrinks zeta(1), and so its upper bound
        bounds = {}
        for drop in ("auto", "2"):
            assert main(["star", "--drop", drop, "--levels", "8", "--head-count", "20000"]) == 0
            system = json.loads(capsys.readouterr().out)["system"]
            bounds[system["drop"]] = system["zeta_at_abscissa_bounds"]
        assert set(bounds) == {1, 2} and bounds[2][1] < bounds[1][1]

    @pytest.mark.parametrize("beta", [None, "1.3"])
    def test_one_zeta_enclosure_per_report(self, monkeypatch, capsys, beta):
        """The report sums the zeta head once, and prints what the public
        star functions give, each from its own enclosure."""
        argv = ["star", "--levels", "8,32,128", "--head-count", "20000"]
        argv += ["--beta", beta] if beta else []
        calls = []
        real = star.zeta_enclosure
        monkeypatch.setattr(star, "zeta_enclosure", lambda *a: calls.append(a) or real(*a))
        assert main(argv) == 0
        assert len(calls) == 1
        out = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        sys_ = star.build_star("default", head_count=20000)
        b = out["beta"]
        assert out["partition"] == json.loads(dumps(star.star_partition(sys_, b)))
        assert out["z0_displayed"] == star.star_z0(sys_, b)
        for row in out["truncations"]:
            assert row["bound"] == star.z0_truncation_bound(sys_, b, row["K"], row["z0_truncated"])


def test_only_analyze_builds_the_property_report(monkeypatch, capsys):
    # every other command reads irreducibility off the strong components and
    # zero columns off one scan of the matrix
    def refuse(self):
        raise AssertionError("PropertyReport built")

    golden = json.dumps(GOLDEN)
    bc = repr(critical.beta_c(cli.load_model(None, golden)).beta_c)
    monkeypatch.setattr(SystemModel, "_properties", property(refuse))
    for argv in (["critical"], ["oa", "--beta", bc], ["oa", "--scan"],
                 ["partition", "--sweep", "0.2:2:5"]):
        assert main([argv[0], "--model-json", golden, *argv[1:]]) == 0, argv
    for beta, kind in (("0.2", "below"), (bc, "critical"), ("2.0", "above"), ("inf", "ground")):
        capsys.readouterr()
        assert main(["kms", "--model-json", golden, f"--beta={beta}"]) == 0
        assert json.loads(capsys.readouterr().out)["regime"]["kind"] == kind
    assert main(["star", "--levels", "8,16", "--head-count", "20000"]) == 0
    with pytest.raises(AssertionError, match="PropertyReport built"):
        main(["analyze", "--model-json", golden])


class TestErrors:
    def test_zero_row_model_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[0, 0], [1, 1]], "energies": [2, 2]}))
        assert main(["analyze", "--model", str(path)]) == 1
        assert "zero" in capsys.readouterr().err

    def test_missing_model_flag(self, capsys):
        assert main(["analyze"]) == 1

    def test_inline_model(self, capsys):
        assert main(["analyze", "--model-json", json.dumps(FULL2)]) == 0

    def test_infinite_energy_exits_one(self, capsys):
        model = '{"matrix": [[1, 1], [1, 0]], "energies": [Infinity, 2]}'
        assert main(["analyze", "--model-json", model]) == 1
        assert "finite and strictly greater than 1" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "1", "-3"])
    def test_abscissa_check_below_two_exits_one(self, golden_file, capsys, length):
        assert main(["critical", "--model", golden_file, "--abscissa-check", length]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "need at least two shells" in captured.err

    def test_underflowing_shells_exit_two(self, capsys):
        # at beta = 1 every word of length 5 weighs 1e-750: both shells are 0
        model = json.dumps({"matrix": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                            "energies": [1e150, 1e150, 1e150]})
        assert main(["critical", "--model-json", model, "--abscissa-check", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: both shells underflow to 0\n"

    def test_linalg_error_exits_two(self, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError, but it reports a failed solve, not bad input
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        model = _model_json([[1, 1, 0], [1, 0, 0], [1, 0, 1]], [math.e, math.e, math.e ** 2])
        assert main(["oa", "--scan", "--model-json", model]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: Singular matrix\n"


# --- the CLI's error paths: exit status, empty stdout, one stderr line ----

def _model_json(matrix, energies, **extra) -> str:
    return json.dumps({"matrix": matrix, "energies": energies, **extra})


# Files written into the test's directory; "{dir}" in an argv or in an
# expected line stands for that directory.  json writes NaN, and reads it back.
_ERROR_FILES = {
    "golden.json": json.dumps(GOLDEN),
    "broken.json": "{",
    "not-utf-8.json": b'\xff\xfe{"matrix": [[1]], "energies": [2]}',
    "full13.json": _model_json([[1] * 13] * 13, [2.0] * 13),
    "state-ok.json": json.dumps(dict(beta=2.0, atom_masses=[0.5, 0.5])),
    "state-broken.json": "[",
    "state-not-utf-8.json": b'\xff{"beta": 2}',
    "state-no-beta.json": json.dumps(dict(atom_masses=[0.5, 0.5])),
    "state-no-masses.json": json.dumps(dict(beta=2.0)),
    "state-unknown-point.json": json.dumps(dict(beta=2.0, atom_masses={"00": 1.0})),
    "state-bad-key.json": json.dumps(dict(beta=2.0, atom_masses={"ab": 1.0})),
    "state-short.json": json.dumps(dict(beta=2.0, atom_masses=[1.0])),
    "state-sum.json": json.dumps(dict(beta=2.0, atom_masses=[0.9, 0.9])),
    "state-nan.json": json.dumps(dict(beta=2.0, atom_masses=[math.nan, 1.0])),
    "state-negative.json": json.dumps(dict(beta=2.0, atom_masses=[-0.5, 1.5])),
    "state-beta-negative.json": json.dumps(dict(beta=-1.0, atom_masses=[0.5, 0.5])),
    "state-one-point.json": json.dumps(dict(beta=2.0, atom_masses=[1.0])),
    "state-beta-list.json": json.dumps(dict(beta=[2], atom_masses=[0.5, 0.5])),
    "state-mass-null.json": json.dumps(dict(beta=2, atom_masses={"01": None, "11": 1})),
    "state-not-object.json": json.dumps([2, [0.5, 0.5]]),
    "state-beta-true.json": json.dumps(dict(beta=True, atom_masses=[0.5, 0.5])),
    "state-mass-list-bool.json": json.dumps(dict(beta=2, atom_masses=[True, False])),
    "state-mass-dict-bool.json": json.dumps(dict(beta=2, atom_masses={"01": True, "11": False})),
}

_G = ["--model", "{dir}/golden.json"]
_CYCLE = _model_json([[0, 1], [1, 0]], [2, 3])
_SQUARE = [[1, 1], [1, 1]]


def _case(id, argv, status, line, seconds=math.inf):
    return pytest.param(argv, status, line, seconds, id=id)


_ERROR_CASES = [
    # model ingestion
    _case("model-missing", ["analyze", "--model", "{dir}/missing.json"], 1,
          "error: cannot read model: [Errno 2] No such file or directory: '{dir}/missing.json'"),
    _case("model-broken-file", ["analyze", "--model", "{dir}/broken.json"], 1,
          "error: cannot read model: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    _case("model-not-json", ["analyze", "--model-json", "not json"], 1,
          "error: cannot read model: Expecting value: line 1 column 1 (char 0)"),
    _case("model-json-empty", ["analyze", "--model-json", ""], 1,
          "error: cannot read model: Expecting value: line 1 column 1 (char 0)"),
    _case("model-not-utf-8", ["analyze", "--model", "{dir}/not-utf-8.json"], 1,
          "error: cannot read model: 'utf-8' codec can't decode byte 0xff in position 0: "
          "invalid start byte"),
    _case("model-not-object", ["analyze", "--model-json", "[1, 2]"], 1,
          'error: model JSON needs "matrix" and "energies"'),
    _case("model-no-energies", ["analyze", "--model-json", '{"matrix": [[1]]}'], 1,
          'error: model JSON needs "matrix" and "energies"'),
    _case("model-none", ["analyze"], 1, "error: provide exactly one of --model or --model-json"),
    _case("model-both", ["analyze", *_G, "--model-json", json.dumps(GOLDEN)], 1,
          "error: provide exactly one of --model or --model-json"),
    _case("matrix-ragged", ["analyze", "--model-json", _model_json([[1, 1], [1]], [2, 2])], 1,
          "error: setting an array element with a sequence. The requested array has an "
          "inhomogeneous shape after 1 dimensions. The detected shape was (2,) + "
          "inhomogeneous part."),
    _case("matrix-not-square", ["analyze", "--model-json", _model_json([[1, 1]], [2, 2])], 1,
          "error: matrix must be square and nonempty, got shape (1, 2)"),
    _case("matrix-empty", ["analyze", "--model-json", _model_json([], [])], 1,
          "error: matrix must be square and nonempty, got shape (0,)"),
    _case("matrix-not-0-1", ["analyze", "--model-json", _model_json([[1, 2], [1, 1]], [2, 2])], 1,
          "error: matrix entries must be 0 or 1"),
    # every JSON value that is not 0 or 1, written as raw JSON text: 2**70
    # stays a Python int, 1e400 reads as inf, and NaN as nan
    *[_case(f"matrix-entry-{id}",
            ["analyze", "--model-json", f'{{"matrix": {matrix}, "energies": [2, 2]}}'], 1,
            "error: matrix entries must be 0 or 1")
      for id, matrix in [("strings", '[["1","1"],["1","1"]]'), ("one-string", '[[1,"1"],[1,1]]'),
                         ("half", "[[0.5,1],[1,1]]"), ("null", "[[1,null],[1,1]]"),
                         ("256", "[[1,256],[1,1]]"),
                         ("2-pow-70", "[[1,1180591620717411303424],[1,1]]"),
                         ("minus-one", "[[1,-1],[1,1]]"), ("1e400", "[[1,1e400],[1,1]]"),
                         ("nan", "[[1,NaN],[1,1]]")]],
    _case("matrix-3d",
          ["analyze", "--model-json", '{"matrix": [[[1]],[[1]]], "energies": [2, 2]}'], 1,
          "error: matrix must be square and nonempty, got shape (2, 1, 1)"),
    _case("energies-short", ["analyze", "--model-json", _model_json(_SQUARE, [2])], 1,
          "error: energies must have length 2, got shape (1,)"),
    _case("matrix-zero-row", ["analyze", "--model-json", _model_json([[1, 1], [0, 0]], [2, 2])], 1,
          "error: row 1 of the transition matrix is identically zero"),
    _case("energy-one", ["analyze", "--model-json", _model_json(_SQUARE, [2, 1.0])], 1,
          "error: energy N(1) = 1.0 must be finite and strictly greater than 1"),
    _case("energy-below-one", ["analyze", "--model-json", _model_json(_SQUARE, [0.5, 2])], 1,
          "error: energy N(0) = 0.5 must be finite and strictly greater than 1"),
    _case("labels-short",
          ["analyze", "--model-json", _model_json(_SQUARE, [2, 2], labels=["a"])], 1,
          "error: labels must match the matrix dimension"),
    _case("labels-not-list",
          ["analyze", "--model-json", _model_json(_SQUARE, [2, 2], labels=5)], 1,
          "error: labels must be a list, got 5"),
    _case("energies-object",
          ["analyze", "--model-json", _model_json(_SQUARE, {"a": 2})], 1,
          "error: energies must be numbers, got {'a': 2}"),
    # beta <= 0 or NaN: one message per beta domain of model.check_beta
    *[_case(f"{cmd}-beta-{beta}", [cmd, *_G, f"--beta={beta}"], 1,
            f"error: {line}, got {float(beta)!r}")
      for cmd, line in [("partition", "beta must be positive or +inf"),
                        ("kms", "beta must be positive or +inf"),
                        ("oa", "beta must be positive and finite")]
      for beta in ("0", "-1", "nan")],
    _case("oa-beta-inf", ["oa", *_G, "--beta", "inf"], 1,
          "error: beta must be positive and finite, got inf"),
    *[_case(f"check-state-beta-{beta}",
            ["check-state", *_G, "--state", "{dir}/state-ok.json", f"--beta={beta}"], 1,
            f"error: beta must be positive or +inf, got {line}")
      for beta, line in [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("-inf", "-inf")]],
    _case("check-state-state-beta-negative",
          ["check-state", *_G, "--state", "{dir}/state-beta-negative.json"], 1,
          "error: beta must be positive or +inf, got -1.0"),
    # partition and oa modes
    _case("partition-no-mode", ["partition", *_G], 1, "error: partition needs --beta or --sweep"),
    _case("sweep-two-fields", ["partition", *_G, "--sweep", "1:2"], 1,
          "error: bad range '1:2', expected b0:b1:steps"),
    _case("sweep-not-number", ["partition", *_G, "--sweep", "a:2:5"], 1,
          "error: bad range 'a:2:5', expected b0:b1:steps"),
    _case("sweep-reversed", ["partition", *_G, "--sweep", "2:1:5"], 1,
          "error: range needs b1 > b0 and at least 2 points"),
    _case("sweep-one-point", ["partition", *_G, "--sweep", "1:2:1"], 1,
          "error: range needs b1 > b0 and at least 2 points"),
    # rejected at its first row: no CSV header either
    _case("sweep-from-negative-beta", ["partition", *_G, "--sweep=-1:2:4"], 1,
          "error: beta must be positive or +inf, got -1.0"),
    _case("kms-reducible",
          ["kms", "--model-json", _model_json([[1, 1], [0, 1]], [2, 2]), "--beta", "2"], 1,
          "error: phase classification requires an irreducible matrix"),
    _case("oa-no-mode", ["oa", *_G], 1, "error: oa needs --beta or --scan"),
    _case("oa-scan-zero-column",
          ["oa", "--model-json", _model_json([[0, 1], [0, 1]], [2, 2]), "--scan"], 1,
          "error: column 0 of the transition matrix is identically zero"),
    # state ingestion
    _case("state-missing", ["check-state", *_G, "--state", "{dir}/missing.json"], 1,
          "error: cannot read state: [Errno 2] No such file or directory: '{dir}/missing.json'"),
    _case("state-broken", ["check-state", *_G, "--state", "{dir}/state-broken.json"], 1,
          "error: cannot read state: Expecting value: line 1 column 2 (char 1)"),
    _case("state-not-utf-8", ["check-state", *_G, "--state", "{dir}/state-not-utf-8.json"], 1,
          "error: cannot read state: 'utf-8' codec can't decode byte 0xff in position 0: "
          "invalid start byte"),
    _case("state-no-beta", ["check-state", *_G, "--state", "{dir}/state-no-beta.json"], 1,
          "error: state JSON needs a beta (or pass --beta)"),
    _case("state-no-masses", ["check-state", *_G, "--state", "{dir}/state-no-masses.json"], 1,
          'error: state JSON needs "atom_masses" (list or bitstring dict)'),
    _case("state-unknown-point",
          ["check-state", *_G, "--state", "{dir}/state-unknown-point.json"], 1,
          "error: unknown column point '00'"),
    _case("state-bad-key", ["check-state", *_G, "--state", "{dir}/state-bad-key.json"], 1,
          "error: invalid literal for int() with base 10: 'a'"),
    _case("state-short", ["check-state", *_G, "--state", "{dir}/state-short.json"], 1,
          "error: need one atom mass per column point (2)"),
    _case("state-sum", ["check-state", *_G, "--state", "{dir}/state-sum.json"], 1,
          "error: atom masses must sum to 1, got 1.8"),
    _case("state-nan", ["check-state", *_G, "--state", "{dir}/state-nan.json"], 1,
          "error: atom masses must be finite and sum to 1, got nan"),
    _case("state-negative", ["check-state", *_G, "--state", "{dir}/state-negative.json"], 1,
          "error: atom masses must be nonnegative"),
    _case("state-beta-list", ["check-state", *_G, "--state", "{dir}/state-beta-list.json"], 1,
          "error: beta must be a number, got [2]"),
    _case("state-mass-null", ["check-state", *_G, "--state", "{dir}/state-mass-null.json"], 1,
          "error: atom mass '01' must be a number, got None"),
    _case("state-not-object", ["check-state", *_G, "--state", "{dir}/state-not-object.json"], 1,
          "error: state JSON must be an object"),
    # JSON booleans are not numbers, though float() and numpy read them as 1 and 0
    _case("state-beta-true", ["check-state", *_G, "--state", "{dir}/state-beta-true.json"], 1,
          "error: beta must be a number, got True"),
    _case("state-mass-list-bool",
          ["check-state", *_G, "--state", "{dir}/state-mass-list-bool.json"], 1,
          "error: atom mass 0 must be a number, got True"),
    _case("state-mass-dict-bool",
          ["check-state", *_G, "--state", "{dir}/state-mass-dict-bool.json"], 1,
          "error: atom mass '01' must be a number, got True"),
    _case("check-state-exhaustive-m13",
          ["check-state", "--model", "{dir}/full13.json", "--state", "{dir}/state-one-point.json",
           "--exhaustive"], 1,
          "error: exhaustive check capped at m <= 12"),
    # star family
    _case("star-drop-0", ["star", "--drop", "0"], 1,
          "error: star energy N_1 = 0.4804530139182014 is below 2; increase drop"),
    _case("star-drop-not-int", ["star", "--drop", "x"], 1,
          "error: invalid literal for int() with base 10: 'x'"),
    _case("star-levels-0", ["star", "--levels", "0"], 1,
          "error: need at least one starred generator"),
    _case("star-levels-not-int", ["star", "--levels", "8,x"], 1,
          "error: invalid literal for int() with base 10: 'x'"),
    _case("star-below-abscissa", ["star", "--beta", "0.5", "--levels", "8"], 1,
          "error: zeta is only evaluated for beta >= 1.0"),
    _case("star-beta-nan", ["star", "--beta", "nan", "--levels", "8"], 1,
          "error: zeta is only evaluated for beta >= 1.0"),
    # the enumeration oracle and the abscissa check
    # the cap bounds the running total of shells 1..k, the words an
    # enumeration to length k visits; the golden mean's totals are 2, 5, 10, 18, ...
    _case("oracle-cap", ["oracle", *_G, "--beta", "1", "--max-length", "10", "--cap", "5"], 1,
          "error: enumeration would visit 10 words, above the cap 5"),
    _case("oracle-cap-long", ["oracle", *_G, "--beta", "1", "--max-length", "100000"], 1,
          "error: enumeration would visit 14930349 words, above the cap 10000000", 0.1),
    # the 2-cycle holds 2 words per shell: the total passes 1000 at length 501
    _case("oracle-cap-cycle",
          ["oracle", "--model-json", _CYCLE, "--beta", "1", "--max-length", "100000",
           "--cap", "1000"], 1,
          "error: enumeration would visit 1002 words, above the cap 1000", 0.1),
    _case("oracle-cap-negative", ["oracle", *_G, "--beta", "1", "--max-length", "0", "--cap=-1"],
          1, "error: --cap must be nonnegative"),
    _case("oracle-source-high",
          ["oracle", *_G, "--beta", "1", "--max-length", "3", "--source", "5"], 1,
          "error: source must be a letter in 0..1, got 5"),
    _case("oracle-source-negative",
          ["oracle", *_G, "--beta", "1", "--max-length", "3", "--source=-1"], 1,
          "error: source must be a letter in 0..1, got -1"),
    _case("oracle-target-high",
          ["oracle", *_G, "--beta", "1", "--max-length", "3", "--target", "7"], 1,
          "error: target must be a letter in 0..1, got 7"),
    _case("oracle-max-length-negative", ["oracle", *_G, "--beta", "1", "--max-length=-3"], 1,
          "error: --max-length must be nonnegative"),
    *[_case(f"oracle-beta-{beta}", ["oracle", *_G, f"--beta={beta}", "--max-length", "2"], 1,
            f"error: N^-beta needs a beta above -inf, got {beta}") for beta in ("nan", "-inf")],
    _case("abscissa-check-1", ["critical", *_G, "--abscissa-check", "1"], 1,
          "error: need at least two shells"),
    _case("abscissa-check-cap", ["critical", *_G, "--abscissa-check", "30", "--cap", "10"], 1,
          "error: enumeration would visit 18 words, above the cap 10"),
    # shell 100000 holds a count of 20899 digits, but the running total
    # passes the default cap at length 33 and no later shell is counted
    _case("abscissa-check-digits",
          ["critical", "--model-json", '{"matrix": [[1,1],[1,0]], "energies": [2,3]}',
           "--abscissa-check", "100000"], 1,
          "error: enumeration would visit 14930349 words, above the cap 10000000", 0.1),
    _case("abscissa-check-cap-cycle",
          ["critical", "--model-json", _CYCLE, "--abscissa-check", "100000", "--cap", "1000"], 1,
          "error: enumeration would visit 1002 words, above the cap 1000", 0.1),
    _case("critical-cap-negative", ["critical", *_G, "--abscissa-check", "30", "--cap=-1"], 1,
          "error: --cap must be nonnegative"),
    # the underflowing-shell model, exit 2: TestErrors.test_underflowing_shells_exit_two
    # numeric failures, exit 2: an ill-conditioned solve of I - M at a class
    # root of near-one energies
    _case("partition-single-letter-floor",
          ["partition", "--model-json",
           _model_json([[1, 0, 1, 0, 0, 1, 0], [1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 0],
                        [1, 1, 1, 1, 1, 1, 0], [1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 1, 0],
                        [0, 0, 0, 0, 0, 0, 1]],
                       [1.0000000017480724, 1.0000001048697882, 1.0002637981990705,
                        1.000000128772144, 1.0000706720780261, 1.0000000052392255,
                        1.000018260112853]),
           "--beta=39858706.53893556"], 2,
          "numeric failure: fixed-target partition values fell below the single-letter floor"),
    # far above the roots of near-one energies: r < 1 by eigenvalues, and the
    # first point's solve fails the floor; a sweep prints no CSV either
    _case("partition-sweep-single-letter-floor",
          ["partition", "--model-json",
           _model_json([[1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 1],
                        [0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 1, 1, 0, 0],
                        [0, 0, 0, 1, 1, 1, 0]],
                       [1.0712714029519481, 1.0000000136694553, 1.0000325498964306,
                        7.263366833534863, 1.0000369528901187, 1.0660163943209902,
                        1.000016431444845]),
           "--sweep=1495.641549517069:1600:3"], 2,
          "numeric failure: fixed-target partition values fell below the single-letter floor"),
]


@pytest.mark.parametrize("argv,status,line,seconds", _ERROR_CASES)
def test_error_path(tmp_path, capsys, argv, status, line, seconds):
    for name, text in _ERROR_FILES.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)

    def fill(text: str) -> str:
        return text.replace("{dir}", str(tmp_path))

    start = time.perf_counter()
    assert main([fill(arg) for arg in argv]) == status
    assert time.perf_counter() - start < seconds
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == fill(line) + "\n"


@pytest.mark.parametrize("matrix,twin", [("[[1.0,1],[1,1]]", "[[1,1],[1,1]]"),
                                          ("[[true,true],[true,false]]", "[[1,1],[1,0]]")])
def test_float_and_bool_matrices_match_integer_twin(capsys, matrix, twin):
    """0-1 entries written as floats or booleans are accepted, and read as the integers."""
    outs = []
    for text in (matrix, twin):
        assert main(["analyze", "--model-json", f'{{"matrix": {text}, "energies": [2, 3]}}']) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1]


# The exit status of every error class: 1 for bad input, 2 for a numeric failure.
_EXIT_STATUS = {
    "KmsError": 2, "InputError": 1,
    "ZeroRowError": 1, "EnergyNotAboveOneError": 1, "DimensionMismatchError": 1,
    "NotIrreducibleError": 1, "ZeroColumnError": 1, "TooLargeForExhaustiveError": 1,
    "ConditionDaggerFailsError": 1, "EnergyBelowTwoError": 1, "ConfigParseError": 1,
    "LengthTooLargeError": 1, "DegenerateShellsError": 2, "NoConvergenceError": 2,
    "ZeroMeasureError": 2, "DivergentNormalizerError": 2, "NegativeDefectError": 2,
    "NotSubinvariantError": 2, "NotFixedPointError": 2, "NotNormalizedError": 2,
    "NegativeEntryError": 2, "NotInvariantError": 2, "BelowAbscissaError": 1,
    "IllConditionedSolveError": 2,
}


def test_exit_status_table_names_every_error_class():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.KmsError)}
    assert classes == set(_EXIT_STATUS)


@pytest.mark.parametrize("name,status", sorted(_EXIT_STATUS.items()))
def test_error_class_exit_status(monkeypatch, capsys, name, status):
    cls = getattr(errors, name)
    init = vars(cls).get("__init__")    # the classes that build their own message
    exc = cls(*[1] * (init.__code__.co_argcount - 1)) if init else cls("raised by a test")

    def raise_it(*args):
        raise exc

    monkeypatch.setattr(cli, "load_model", raise_it)
    assert main(["analyze"]) == status
    captured = capsys.readouterr()
    prefix = "error" if status == 1 else "numeric failure"
    assert captured.out == ""
    assert captured.err == f"{prefix}: {exc}\n"


class TestSharedParser:
    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_interleaved_commands_match_fresh_parser(self, golden_file, full2_file, tmp_path,
                                                     monkeypatch, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"beta": 2.0, "atom_masses": {"01": 0.25, "11": 0.75}}))
        runs = [
            ["oracle", "--model", full2_file, "--beta", "2.0", "--max-length", "3",
             "--source", "0", "--target", "1", "--cap", "100"],
            ["partition", "--model", golden_file, "--beta", "2.0", "--margin", "0.5"],
            ["oracle", "--model", golden_file, "--beta", "1.0", "--max-length", "4"],
            ["critical", "--model", golden_file, "--abscissa-check", "6", "--cap", "1000"],
            ["partition", "--model", golden_file, "--beta", "2.0"],
            ["check-state", "--model", golden_file, "--state", str(state), "--beta", "3.0",
             "--exhaustive"],
            ["critical", "--model", golden_file],
            ["check-state", "--model", golden_file, "--state", str(state)],
            ["oa", "--model", full2_file, "--scan"],
            ["oa", "--model", full2_file, "--beta", "1.0"],
            ["star", "--levels", "8,16", "--head-count", "20000", "--beta", "1.0"],
            ["star", "--levels", "8", "--head-count", "20000"],
            ["kms", "--model", golden_file, "--beta", "inf"],
            ["analyze"],
        ]

        def run_all():
            out = []
            for argv in runs:
                rc = main(argv)
                captured = capsys.readouterr()
                out.append((rc, captured.out, captured.err))
            return out

        shared = run_all()
        for argv in runs[:-1]:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == run_all()
        assert [rc for rc, _, _ in shared] == [0] * (len(runs) - 1) + [1]


class TestDumps:
    def test_floats_round_trip(self):
        text = dumps({"x": 1.0 / 3.0, "inf": math.inf})
        parsed = json.loads(text)
        assert parsed["x"] == 1.0 / 3.0
        assert parsed["inf"] == "inf"

    def test_keys_sorted(self):
        assert dumps({"b": 1, "a": 2}).index('"a"') < dumps({"b": 1, "a": 2}).index('"b"')


# --- the two-pass serializer the one-pass `dumps` must reproduce byte for byte

def _plain_reference(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain_reference(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_plain_reference(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _plain_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_reference(v) for v in obj]
    return obj


def dumps_reference(obj) -> str:
    obj = _plain_reference(obj)

    def emit(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return cli._fmt_float(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, dict):
            items = (f"{json.dumps(str(k))}: {emit(v)}" for k, v in sorted(o.items()))
            return "{" + ", ".join(items) + "}"
        if isinstance(o, list):
            return "[" + ", ".join(emit(v) for v in o) + "]"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return emit(obj)


def _inline(model) -> str:
    return json.dumps({"matrix": model.matrix.tolist(), "energies": model.energies.tolist()})


@dataclasses.dataclass(frozen=True)
class _Inner:
    tag: TypeTag
    values: tuple
    array: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    estimate: AbscissaEstimate
    extra: dict


class TestDumpsMatchesTwoPassReference:
    def _reports(self, argv, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "dumps", lambda obj: seen.append(obj) or dumps(obj))
        assert main(argv) == 0
        capsys.readouterr()
        assert seen
        return seen

    def test_every_subcommand_report(self, monkeypatch, capsys, tmp_path, rng):
        golden, full3 = _inline(golden_mean_model()), _inline(full_model(3))
        rand = _inline(random_irreducible(rng, 6, non_permutation=True))
        coexist = _inline(coexistence_models()[1])
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"beta": 2.0, "atom_masses": {"01": 0.25, "11": 0.75}}))
        runs = [["analyze", "--model-json", golden], ["analyze", "--model-json", rand],
                ["partition", "--model-json", golden, "--beta", "0.2"],
                ["partition", "--model-json", rand, "--beta", "inf"],
                ["partition", "--model-json", full3, "--beta", "2.0"],
                ["critical", "--model-json", golden, "--abscissa-check", "8"],
                ["oa", "--model-json", coexist, "--scan"],
                ["oa", "--model-json", full3, "--beta", str(math.log(3) / math.log(2))],
                ["check-state", "--model-json", golden, "--state", str(state)],
                ["star", "--levels", "8,16", "--head-count", "20000"]]
        runs += [["kms", "--model-json", model, "--beta", beta]
                 for model in (golden, rand) for beta in ("0.2", "3.5", "inf")]
        runs.append(["kms", "--model-json", full3, "--beta", str(math.log(3) / math.log(2))])
        for argv in runs:
            for obj in self._reports(argv, monkeypatch, capsys):
                assert dumps(obj) == dumps_reference(obj), argv[0]

    @pytest.mark.parametrize("obj", [
        [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-300, 1.0 / 3.0],
        {"scalars": [np.float64(0.1), np.float32(0.1), np.int64(-3), np.uint8(7),
                     np.float64(np.inf), np.float64(np.nan)]},
        np.arange(6.0).reshape(2, 3) / 7.0,
        np.array([[1, 2], [3, 4]], dtype=np.int8),
        AbscissaEstimate(estimate=0.5, residual=np.float64(-1e-12)),
        _Outer(_Inner(TypeTag.mixed(0.25), (1, (2.5, None)), np.eye(2)),
               AbscissaEstimate(1.0, 2.0), {"k": QState(1.0, (1.0,), (0.5,), TypeTag("finite"))}),
        {1: "one", 2.5: "float key", (1, 2): "tuple key", None: 0, True: False},
        {"flags": [True, 1, False, 0, True + 1], "b": True, "a": 1},
        {1: "int key first", "1": "str key wins"},
        (),
        {},
        "quote \" and \u00e9",
    ])
    def test_values(self, obj):
        assert dumps(obj) == dumps_reference(obj)

    def test_float_lists_match_per_element_path(self):
        """Lists of finite floats take one %-format; it must print what format(x, ".17g") does."""
        patterns = np.random.default_rng(20261018).integers(0, 2 ** 64, size=120_000,
                                                              dtype=np.uint64)
        values = patterns.view(np.float64)
        values = values[np.isfinite(values)].tolist()
        values += [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17, 1.7976931348623157e308,
                   -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0]
        assert len(values) >= 100_000
        want = "[" + ", ".join(format(v, ".17g") for v in values) + "]"
        assert dumps(values) == want
        assert dumps(tuple(values)) == want
        assert dumps(np.array(values)) == want
        assert dumps({"k": values[:1000]}) == dumps_reference({"k": values[:1000]})

    @pytest.mark.parametrize("obj", [
        [1.0, math.inf], [math.nan], [-math.inf, 2.5], (0.5, math.nan, 0.25),
        [1, 2.0], [2.0, 10 ** 20], [True, 1.0], [1.0, False], [np.float64(1.5), 2.0],
        [2.0, np.float64(np.nan)], [1.0, None], [1.0, "x"], [1.0, [2.0]], [], (),
        np.array([1.0, np.inf, -0.0]), np.array([], dtype=float),
    ])
    def test_mixed_lists_fall_back(self, obj):
        assert dumps(obj) == dumps_reference(obj)

    @pytest.mark.parametrize("obj", [
        object(), {1, 2}, b"bytes", np.bool_(True), [np.complex128(1j)], {"x": object},
        np.array(1.5),
    ])
    def test_unsupported_types_raise(self, obj):
        with pytest.raises(TypeError):
            dumps_reference(obj)
        with pytest.raises(TypeError):
            dumps(obj)
