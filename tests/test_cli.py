from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from kmsphase import cli
from kmsphase.cli import dumps, main
from kmsphase.critical import AbscissaEstimate
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

    @pytest.mark.parametrize("obj", [
        object(), {1, 2}, b"bytes", np.bool_(True), [np.complex128(1j)], {"x": object},
        np.array(1.5),
    ])
    def test_unsupported_types_raise(self, obj):
        with pytest.raises(TypeError):
            dumps_reference(obj)
        with pytest.raises(TypeError):
            dumps(obj)
