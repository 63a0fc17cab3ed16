import csv
import dataclasses
import json
import re
import warnings
from decimal import Context, Decimal

import numpy as np
import pytest

import attncert.harness
from attncert import random_model, save_model
from attncert.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, REPORT_SCHEMA, main

# The exact minimum (1 - e**2) / (e**2 + 2), at vertex (1, -1, -1),
# correctly rounded.
K3_MIN = -0.6804790632423977
SUMMARY_RE = re.compile(r"^certified=(true|false) min_hybrid=.+ targets=\d+ time_ms=\d+$")


def write_instance(tmp_path, name="inst.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def model_file(tmp_path, seed=1, **kw):
    kw.setdefault("tokens", 2)
    kw.setdefault("heads", 1)
    kw.setdefault("d_model", 4)
    m = random_model(seed=seed, **kw)
    path = str(tmp_path / "model.json")
    save_model(m, path)
    return path, m


class TestSolve:
    def test_even_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, c=[0.0, 1.0], ell=[0.0, 0.0], u=[0.0, 0.0])
        assert main(["solve", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value=0.5 m=0 sense=min"
        assert out[1] == "vertex=[0.0, 0.0]"

    def test_symmetric_three_coordinate_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, c=[-1.0, 0.0, 1.0], ell=[-1.0, -1.0, -1.0], u=[1.0, 1.0, 1.0])
        assert main(["solve", path, "--certified"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        value = float(out[0].split()[0].split("=")[1])
        assert value == K3_MIN
        ctx = Context(prec=50)
        e2 = ctx.exp(Decimal(2))
        assert float(ctx.divide(ctx.subtract(1, e2), ctx.add(e2, 2))) == K3_MIN
        assert out[1] == "vertex=[1.0, -1.0, -1.0]"
        certified = float(out[2].split("=")[1])
        assert certified <= value
        assert value - certified < 1e-12

    def test_far_apart_coordinates_print_no_warning(self, tmp_path, capsys):
        path = write_instance(tmp_path, c=[1.0, -1.0, 0.5], ell=[-1e308, 1e308, 0.0], u=[-1e308, 1e308, 1.0])
        assert main(["solve", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("value=-1.0 ")
        assert captured.err == ""

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = write_instance(tmp_path, c=[0.0], ell=[0.0], u=[0.0], extra=1)
        assert main(["solve", path]) == EXIT_VALIDATION
        assert "unknown fields" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == EXIT_VALIDATION
        assert "not valid JSON" in capsys.readouterr().err

    def test_inverted_box(self, tmp_path):
        path = write_instance(tmp_path, c=[1.0, 2.0], ell=[1.0, 1.0], u=[0.0, 0.0])
        assert main(["solve", path]) == EXIT_VALIDATION

    def test_mismatched_lengths(self, tmp_path):
        path = write_instance(tmp_path, c=[1.0, 2.0], ell=[0.0], u=[1.0])
        assert main(["solve", path]) == EXIT_VALIDATION

    def test_non_numeric_field(self, tmp_path):
        path = write_instance(tmp_path, c=[1.0, "x"], ell=[0.0, 0.0], u=[1.0, 1.0])
        assert main(["solve", path]) == EXIT_VALIDATION

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("field", ["c", "ell", "u"])
    def test_integer_past_the_float_range_exit_3(self, tmp_path, capsys, field):
        fields = {"c": [1.0, 0.0], "ell": [0.0, 0.0], "u": [1.0, 1.0]}
        fields[field][1] = 10**400
        path = write_instance(tmp_path, **fields)
        assert main(["solve", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {path}: field '{field}': non-numeric data")


class TestSweep:
    def test_aggregate_output_and_files(self, tmp_path, capsys):
        out_csv = tmp_path / "trials.csv"
        agg_csv = tmp_path / "agg.csv"
        code = main(
            [
                "sweep",
                "--k", "3", "5",
                "--trials", "2",
                "--budget", "10",
                "--out", str(out_csv),
                "--agg-out", str(agg_csv),
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "K,method,cert_rate,mean_lower,mean_gap,total_time_s"
        assert len(lines) == 1 + 2 * 3  # two K values x three methods
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["K", "trial", "method", "lower", "attack", "gap", "time_us"]
        assert len(rows) == 1 + 2 * 2 * 3

    def test_bad_config(self):
        assert main(["sweep", "--k", "0", "--trials", "2"]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "args, match",
        [
            (["--seed", "-1"], "seed"),
            (["--width-scale", "nan"], "width_scale"),
            (["--width-scale", "inf"], "width_scale"),
            (["--coeff-scale", "nan"], "coeff_scale"),
            (["--coeff-scale=-inf"], "coeff_scale"),
        ],
    )
    def test_bad_seed_or_scale_exit_3(self, capsys, args, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--k", "4", "--trials", "1"] + args) == EXIT_VALIDATION
        assert match in capsys.readouterr().err

    def test_overflowing_coeff_scale_exit_3(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--k", "4", "--trials", "3", "--coeff-scale", "1e308"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: coeff_scale")


class TestCertify:
    def run_and_parse(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out.splitlines()
        summary = out[-1]
        assert SUMMARY_RE.match(summary), summary
        report = json.loads("\n".join(out[:-1])) if len(out) > 1 else None
        return code, report, summary

    def test_generated_input_report(self, tmp_path, capsys):
        path, _ = model_file(tmp_path)
        code, report, summary = self.run_and_parse(
            ["certify", path, "--epsilon", "0.02", "--budget", "30"], capsys
        )
        assert code == EXIT_OK
        assert report["schema"] == REPORT_SCHEMA
        assert report["certified_mode"] is False
        assert report["epsilon"] == 0.02
        hybrids = []
        for t in report["targets"]:
            assert t["l_hybrid"] == max(t["l_vertex"], t["l_baseline"])
            assert t["attack"] >= t["l_hybrid"] - 1e-9
            hybrids.append(t["l_hybrid"])
        assert report["min_hybrid"] == min(hybrids)
        assert summary.startswith(f"certified={'true' if report['certified'] else 'false'}")

    def test_report_written_to_file(self, tmp_path, capsys):
        path, _ = model_file(tmp_path)
        out_path = tmp_path / "report.json"
        code = main(["certify", path, "--epsilon", "0.01", "--budget", "10", "--out", str(out_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and SUMMARY_RE.match(out[0])
        report = json.loads(out_path.read_text())
        assert report["schema"] == REPORT_SCHEMA

    def test_input_file_with_label(self, tmp_path, capsys):
        path, m = model_file(tmp_path)
        x = [0.5] * m.image_size
        inp = write_instance(tmp_path, name="input.json", x=x, y=0)
        code, report, _ = self.run_and_parse(
            ["certify", path, "--input", inp, "--epsilon", "0.01", "--budget", "10"], capsys
        )
        assert code == EXIT_OK
        assert report["y"] == 0

    def test_misclassified_label_not_certified(self, tmp_path, capsys):
        from attncert import forward

        path, m = model_file(tmp_path)
        x0 = np.random.default_rng(3).uniform(0.2, 0.8, m.image_size)
        y_wrong = int(np.argmin(forward(m, x0)))
        inp = write_instance(tmp_path, name="input.json", x=list(x0), y=y_wrong)
        code, report, summary = self.run_and_parse(
            ["certify", path, "--input", inp, "--budget", "10"], capsys
        )
        assert code == EXIT_OK
        assert report["certified"] is False
        assert summary.startswith("certified=false")

    def test_certified_mode(self, tmp_path, capsys):
        path, _ = model_file(tmp_path, n_classes=3)
        code, report, _ = self.run_and_parse(
            ["certify", path, "--epsilon", "0.01", "--budget", "10", "--certified"], capsys
        )
        assert code == EXIT_OK
        assert report["certified_mode"] is True
        assert len(report["targets"]) == 2

    def test_input_validation(self, tmp_path, capsys):
        path, m = model_file(tmp_path)
        x = [0.5] * m.image_size
        bad_field = write_instance(tmp_path, name="a.json", x=x, y=0, label=1)
        assert main(["certify", path, "--input", bad_field]) == EXIT_VALIDATION
        bad_y = write_instance(tmp_path, name="b.json", x=x, y=1.5)
        assert main(["certify", path, "--input", bad_y]) == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize("label", [{"y": 0}, {}])
    def test_input_outside_the_unit_range_exit_3(self, tmp_path, capsys, label):
        path, m = model_file(tmp_path)
        x = [0.5] * m.image_size
        x[3] = 2.0
        inp = write_instance(tmp_path, name="input.json", x=x, **label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", path, "--input", inp, "--epsilon", "0.01"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: clean input pixels must lie in [0, 1], got x0[3] = 2.0"]

    @pytest.mark.parametrize("label", [{"y": 0}, {}])
    @pytest.mark.parametrize("pixel, shown", [("NaN", "nan"), ("1e400", "inf")], ids=["nan", "inf"])
    def test_non_finite_pixel_exit_3(self, tmp_path, capsys, pixel, shown, label):
        # The box is built, and the pixel named, before the prediction reads
        # the input: without a label it would fail on non-finite logits.
        path, m = model_file(tmp_path)
        x = ["0.5"] * m.image_size
        x[3] = pixel
        inp = tmp_path / "input.json"
        inp.write_text('{"x": [' + ", ".join(x) + "]" + "".join(f', "{k}": {v}' for k, v in label.items()) + "}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", path, "--input", str(inp), "--epsilon", "0.01"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: clean input pixels must lie in [0, 1], got x0[3] = {shown}"]

    def test_integer_past_the_float_range_exit_3(self, tmp_path, capsys):
        path, m = model_file(tmp_path)
        x = [0.5] * m.image_size
        x[3] = 10**400
        inp = write_instance(tmp_path, name="input.json", x=x)
        assert main(["certify", path, "--input", inp, "--epsilon", "0.01"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {inp}: field 'x': non-numeric data")

    def test_negative_epsilon(self, tmp_path):
        path, _ = model_file(tmp_path)
        assert main(["certify", path, "--epsilon", "-0.1"]) == EXIT_VALIDATION

    def test_overflowing_scores_exit_3(self, tmp_path, capsys):
        m = random_model(seed=0, tokens=4, heads=1, d_model=4)
        m = dataclasses.replace(m, wq=m.wq * 1e160, wk=m.wk * 1e160)
        path = str(tmp_path / "model.json")
        save_model(m, path)
        x = write_instance(tmp_path, x=[0.5] * m.image_size, y=0)
        assert main(["certify", path, "--input", x]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("certified", [False, True])
    def test_baseline_sum_past_the_float_range(self, tmp_path, certified):
        # Value coefficients near DBL_MAX: the baseline arm's sum of rows
        # overflows to -inf, a sound bound, with no RuntimeWarning, and the
        # vertex arm stays finite and sets every hybrid bound.
        m = random_model(0, tokens=4, n_classes=3, suffix_kind="mlp1")
        s = m.suffix
        suffix = dataclasses.replace(s, w2=s.w2 * 4e307)
        m = dataclasses.replace(m, wq=m.wq * 30, wk=m.wk * 30, suffix=suffix)
        path, out = str(tmp_path / "model.json"), tmp_path / "report.json"
        save_model(m, path)
        argv = ["certify", path, "--epsilon", "0.05", "--out", str(out)] + (["--certified"] if certified else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        targets = json.loads(out.read_text())["targets"]
        assert min(t["l_baseline"] for t in targets) == -np.inf
        for t in targets:
            assert np.isfinite(t["l_vertex"]) and t["l_hybrid"] == t["l_vertex"]

    def test_overflowing_logits_without_input_exit_3(self, tmp_path, capsys):
        # Without --input the label is the clean prediction, which such a
        # model does not have; no RuntimeWarning may escape while picking it.
        m = random_model(seed=0, tokens=4, heads=1, d_model=4)
        m = dataclasses.replace(m, wq=m.wq * 1e160, wk=m.wk * 1e160)
        path = str(tmp_path / "model.json")
        save_model(m, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", path]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    def test_missing_model(self, tmp_path):
        assert main(["certify", str(tmp_path / "none.json")]) == EXIT_VALIDATION

    def test_bad_budget_rejected_before_the_model_is_read(self, tmp_path, capsys):
        assert main(["certify", str(tmp_path / "missing.json"), "--budget", "0"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: budget")

    def test_corrupt_base64_weight_exit_3(self, tmp_path, capsys):
        path, _ = model_file(tmp_path)
        with open(path) as fh:
            doc = json.load(fh)
        b = doc["weights"]["embed"]["b"]
        b["data"] = "-" + b["data"][1:]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["certify", path, "--epsilon", "0.01"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: weights.embed.b: data is not standard padded base64"]
        assert captured.out == ""

    @pytest.mark.parametrize("with_input", [False, True])
    def test_negative_seed_exit_3(self, tmp_path, capsys, with_input):
        path, m = model_file(tmp_path)
        extra = ["--input", write_instance(tmp_path, x=[0.5] * m.image_size)] if with_input else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", path, "--seed", "-1"] + extra) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "seed" in captured.err and captured.out == ""

    @pytest.mark.parametrize("group, name", [("embed", "w"), ("suffix", "w1")])
    def test_non_list_weight_shape(self, tmp_path, capsys, group, name):
        path, _ = model_file(tmp_path, suffix_kind="mlp1")
        with open(path) as fh:
            doc = json.load(fh)
        doc["weights"][group][name]["shape"] = 3
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["certify", path]) == EXIT_VALIDATION
        assert f"weights.{group}.{name}" in capsys.readouterr().err

    def test_huge_width_without_mask_exit_3(self, tmp_path, capsys):
        path, _ = model_file(tmp_path, seed=0, d_model=2, d_head=2)
        with open(path) as fh:
            doc = json.load(fh)
        del doc["weights"]["mask"]
        doc["dims"]["width"] = 2_000_000
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["certify", path]) == EXIT_VALIDATION
        assert "weights.suffix.w" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "too-deep"])
    @pytest.mark.parametrize("subcommand", ["certify", "solve"])
    def test_unparseable_file_exit_3(self, tmp_path, capsys, content, subcommand):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([subcommand, str(path)]) == EXIT_VALIDATION
        assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{model}", "--epsilon", "0.01", "--budget", "10", "--out"],
        ["sweep", "--k", "4", "--trials", "1", "--budget", "10", "--out"],
        ["sweep", "--k", "4", "--trials", "1", "--budget", "10", "--agg-out"],
    ],
    ids=["certify-out", "sweep-out", "sweep-agg-out"],
)
def test_unwritable_output_exit_3(tmp_path, capsys, argv, where):
    # An output path that cannot be opened for writing is one error line
    # naming it, exit 3, and no traceback.
    path, _ = model_file(tmp_path)
    out = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    argv = [a.replace("{model}", path) for a in argv] + [str(out)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out}: ")


class TestSelfcheck:
    def test_passes(self, capsys):
        assert main(["selfcheck", "--trials", "25", "--samples", "25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "selfcheck passed" in out
        for name in ("oracle-equivalence", "soundness-sampling", "dominance"):
            assert f"{name}: checked=25 failures=0" in out

    def test_negative_seed_exit_3(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["selfcheck", "--trials", "5", "--seed", "-1"]) == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err

    def test_injected_fault_detected(self, capsys, monkeypatch):
        solve = attncert.harness.directional_min
        monkeypatch.setattr(attncert.harness, "directional_min", lambda c, box: solve(-c, box))
        assert main(["selfcheck", "--trials", "25", "--samples", "25"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert "selfcheck FAILED" in captured.err
        assert "failing_seeds=" in captured.out


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "inst.json", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand", [["sweep", "--k", "4"], ["certify", "model.json"]])
    def test_threads_flag_removed(self, subcommand):
        with pytest.raises(SystemExit) as exc:
            main(subcommand + ["--threads", "2"])
        assert exc.value.code == 2

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, 2, EXIT_VALIDATION, EXIT_INFEASIBLE, EXIT_INTERNAL}) == 5
