import csv
import dataclasses
import itertools
import json
import os
import re
from collections import Counter

import numpy as np
import pytest

from stratfit import cli
from stratfit.cli import load_fit, main, read_dataset, read_sim_config, save_fit
from stratfit.core import Dataset
from stratfit.densities import Family
from stratfit.effects import effect_table, natural_param_ses
from stratfit.em import FitConfig, fit
from stratfit.errors import DataError, EstimationError, InferenceError, WarmStartError
from stratfit.simulate import SimConfig

from test_estimation import simulate_four_strata


def write_data_csv(path, ds, cluster=None, extra_missing=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["y", "t", "z"]
        if cluster is not None:
            header.append("cluster")
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(ds.y[i])), int(ds.t[i]), int(ds.z[i])]
            if cluster is not None:
                row.append(cluster[i])
            writer.writerow(row)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    ds, _ = simulate_four_strata(250, seed=70, dispersion=2.4)
    path = tmp_path_factory.mktemp("data") / "cases.csv"
    rng = np.random.default_rng(0)
    clusters = rng.integers(0, 12, ds.n)
    write_data_csv(path, ds, cluster=clusters)
    return str(path)


@pytest.fixture(scope="module")
def tobit_csv(tmp_path_factory):
    ds, _ = simulate_four_strata(250, seed=71, dispersion=2.4, sigma=2.0, effect=3.0,
                                 censor=True)
    path = tmp_path_factory.mktemp("data") / "tobit.csv"
    write_data_csv(path, ds, cluster=np.random.default_rng(1).integers(0, 12, ds.n))
    return str(path)


@pytest.fixture(scope="module")
def fit_json(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    assert main(["fit", data_csv, "--out-dir", str(out)]) == 0
    return out / "fit.json"


def read_csv_columns(path) -> dict[str, list[str]]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: [r[key] for r in rows] for key in rows[0]}


class TestReadDataset:
    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t\n1.0,0\n")
        with pytest.raises(DataError, match="missing required column 'z'"):
            read_dataset(str(path), 2, False, Family.NORMAL)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z\n1.0,0,0\nouch,1,0\n")
        with pytest.raises(DataError, match="row 3"):
            read_dataset(str(path), 2, False, Family.NORMAL)

    def test_out_of_range_level_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z\n1.0,0,0\n2.0,1,5\n")
        with pytest.raises(DataError, match="row 3"):
            read_dataset(str(path), 2, False, Family.NORMAL)

    def test_dichotomize_collapses_levels(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("y,t,z\n1.0,0,0\n2.0,1,7\n")
        ds = read_dataset(str(path), 2, True, Family.NORMAL)
        assert ds.z.tolist() == [0, 1]

    def test_negative_y_under_tobit_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("y,t,z\n-1.0,0,0\n")
        with pytest.raises(DataError, match="negative outcome"):
            read_dataset(str(path), 2, False, Family.TOBIT)

    def test_defaults_for_missing_optional_columns(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("y,t,z\n1.0,0,0\n2.0,1,1\n")
        ds = read_dataset(str(path), 2, False, Family.NORMAL)
        assert np.all(ds.w == 1.0)
        assert ds.n_clusters == 2

    @pytest.mark.parametrize("level", ["inf", "-inf", "nan"])
    def test_non_finite_level_reports_row(self, tmp_path, level):
        path = tmp_path / "bad.csv"
        path.write_text(f"y,t,z\n1.0,0,0\n2.0,1,1\n3.0,0,{level}\n4.0,1,0\n")
        with pytest.raises(DataError, match="row 4: z must be an integer level"):
            read_dataset(str(path), 2, False, Family.NORMAL)
        assert main(["fit", str(path), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row, family, message", [
        ("nan,1,1,1.0", "normal", "outcomes must be finite"),
        ("inf,1,1,1.0", "normal", "outcomes must be finite"),
        ("3.0,1,1,-0.5", "normal", "weights must be finite and nonnegative"),
        ("3.0,1,1,inf", "normal", "weights must be finite and nonnegative"),
        ("3.0,2,1,1.0", "normal", "arm indicator must be 0 or 1"),
        ("-3.0,1,1,1.0", "tobit", "negative outcome under censored family"),
    ], ids=["nan_y", "inf_y", "negative_w", "inf_w", "arm_2", "tobit_negative_y"])
    def test_bad_value_reports_row(self, tmp_path, row, family, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"y,t,z,w\n1.0,0,0,1.0\n2.0,1,0,1.0\n3.0,0,1,1.0\n{row}\n")
        with pytest.raises(DataError, match=f"^row 5: {message}$"):
            read_dataset(str(path), 2, False, Family(family))
        assert main(["fit", str(path), "--family", family, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row, message", [
        ("nan,0,1", "outcomes must be finite"),
        ("ouch,0,1", "could not convert string to float: 'ouch'"),
        ("2.0,0,4", r"z=4 outside \[0, 2\) \(use --dichotomize to collapse levels above 0\)"),
    ], ids=["post_read_check", "per_row_error", "z_range"])
    def test_rows_after_a_blank_line_report_their_file_line(self, tmp_path, row, message):
        # the bad row is the third record but sits on line 5
        path = tmp_path / "bad.csv"
        path.write_text(f"y,t,z\n1.0,0,0\n\n2.0,1,1\n{row}\n")
        with pytest.raises(DataError, match=f"^row 5: {message}$"):
            read_dataset(str(path), 2, False, Family.NORMAL)

    def test_arm_written_as_float_reads_as_the_integer(self, tmp_path):
        rows = "1.0,{},0\n2.0,{},1\n3.0,{},1\n4.0,{},0\n"
        path = tmp_path / "ints.csv"
        path.write_text("y,t,z\n" + rows.format(0, 1, 0, 1))
        expected = read_dataset(str(path), 2, False, Family.NORMAL)
        path.write_text("y,t,z\n" + rows.format("0.0", "1.0", "0.", "1e0"))
        got = read_dataset(str(path), 2, False, Family.NORMAL)
        for name in ("y", "t", "z", "w", "cluster"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
            assert getattr(got, name).dtype == getattr(expected, name).dtype, name

    def test_fractional_arm_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z\n1.0,0,0\n2.0,1,1\n3.0,0.5,1\n")
        with pytest.raises(DataError, match=r"^row 4: arm indicator must be 0 or 1$") as err:
            read_dataset(str(path), 2, False, Family.NORMAL)
        assert err.value.row == 2
        assert main(["fit", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_blank_cluster_cell_is_a_cluster_of_its_own(self, tmp_path):
        # the blank cell sits on line 5, and another row's cluster is 5
        path = tmp_path / "ok.csv"
        path.write_text("y,t,z,cluster\n1.0,0,0,5\n2.0,1,1,6\n3.0,0,1,7\n4.0,1,0,\n")
        ds = read_dataset(str(path), 2, False, Family.NORMAL)
        assert ds.n_clusters == 4

    def test_cluster_codes_follow_the_label_order(self, tmp_path):
        # no blank cell, or no column: codes number the sorted labels, the
        # row's line number standing in for an absent column
        rows = [(float(i), i % 2, 0) for i in range(12)]
        labels = [str(line) for line in range(2, 14)]
        expected = np.unique(labels, return_inverse=True)[1]
        path = tmp_path / "ok.csv"
        path.write_text("y,t,z\n" + "".join(f"{y},{t},{z}\n" for y, t, z in rows))
        assert np.array_equal(read_dataset(str(path), 2, False, Family.NORMAL).cluster,
                              expected)
        path.write_text("y,t,z,cluster\n" + "".join(
            f"{y},{t},{z},{label}\n" for (y, t, z), label in zip(rows, labels)))
        assert np.array_equal(read_dataset(str(path), 2, False, Family.NORMAL).cluster,
                              expected)

    def test_columns_equal_the_record_by_record_parse(self, tmp_path):
        # odd spellings and spaces, a blank line, empty and missing weights
        # and clusters: the arrays are those of a csv.DictReader pass, one
        # record at a time, given to Dataset.from_arrays, bit for bit
        rng = np.random.default_rng(3)
        text = ["y, t ,z,w ,cluster"]
        for i in range(2000):
            y = repr(float(rng.normal(2.0, 3.0)))
            w = repr(float(rng.uniform(0.5, 2.0)))
            text.append(f"{y},{i % 2},{(i // 2) % 2},{w},c{rng.integers(40)}")
        text[5:5] = ["", " 2.5 ,1.0, 0. ,,", "-0.0,0,1e0, 1.5 , c3 ", "+3,1,1", "1_0,0,0,2"]
        path = tmp_path / "cases.csv"
        path.write_text("\n".join(text) + "\n")
        y, t, z, w, cluster = [], [], [], [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                row = {k.strip(): (v or "").strip() for k, v in row.items()}
                y.append(float(row["y"]))
                t.append(float(row["t"]))
                z.append(int(float(row["z"])))
                w.append(float(row["w"]) if row["w"] else 1.0)
                cluster.append(row["cluster"] or f" {reader.line_num}")
        want = Dataset.from_arrays(y, t, np.array(z), w, np.array(cluster, dtype=object),
                                   k_levels=2)
        got = read_dataset(str(path), 2, False, Family.NORMAL)
        assert got.n == 2004
        for name in ("y", "t", "z", "w", "cluster"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name

    def test_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_text("\ufeffy,t,z\n1.0,0,0\n2.0,1,1\n", encoding="utf-8")
        ds = read_dataset(str(path), 2, False, Family.NORMAL)
        assert ds.y.tolist() == [1.0, 2.0]


class TestCmdFit:
    @pytest.mark.parametrize("option", [
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--max-iter", "0"],
    ], ids=["tol_nan", "tol_inf", "tol_negative", "max_iter_0"])
    def test_bad_fit_setting_exits_2_before_any_output(self, data_csv, tmp_path, capsys,
                                                       option):
        out = tmp_path / "out"
        assert main(["fit", data_csv, *option, "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "must be" in capsys.readouterr().err

    def test_end_to_end_outputs(self, data_csv, tmp_path):
        out = tmp_path / "fit_out"
        code = main(["fit", data_csv, "--out-dir", str(out)])
        assert code == 0
        for name in ("params.csv", "effects.csv", "trace.csv",
                     "posterior_hist.csv", "marginal_fit.csv", "fit.json",
                     "summary.json"):
            assert (out / name).exists(), name
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert [r["stop_reason"] for r in rows] == [
            r.stop_reason for r in load_fit(str(out / "fit.json"))[0].trace]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["n_starts"] == 16
        assert sum(summary["stop_reasons"].values()) == 16
        assert summary["stop_reasons"] == dict(
            Counter(r["stop_reason"] for r in rows))
        assert len(summary["effects"]) == 4

    def test_starts_all_equals_default_sixteen(self, data_csv, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["fit", data_csv, "--out-dir", str(out_a)]) == 0
        assert main(["fit", data_csv, "--starts", "all", "--out-dir", str(out_b)]) == 0
        assert (out_a / "params.csv").read_bytes() == (out_b / "params.csv").read_bytes()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_fit_is_bit_stable_across_runs(self, data_csv, tmp_path):
        out_a = tmp_path / "r1"
        out_b = tmp_path / "r2"
        assert main(["fit", data_csv, "--out-dir", str(out_a)]) == 0
        assert main(["fit", data_csv, "--out-dir", str(out_b)]) == 0
        for name in ("params.csv", "effects.csv", "trace.csv",
                     "posterior_hist.csv", "marginal_fit.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_column_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,t\n1.0,0\n")
        assert main(["fit", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_negative_tobit_outcome_exits_2(self, tmp_path):
        bad = tmp_path / "neg.csv"
        bad.write_text("y,t,z\n-1.0,0,0\n1.0,1,0\n")
        assert main(["fit", str(bad), "--family", "tobit",
                     "--out-dir", str(tmp_path)]) == 2

    def test_empty_cell_exits_2(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("y,t,z\n" + "\n".join(
            f"{v},0,0" for v in (1.0, 2.0, 3.0)
        ) + "\n1.0,1,0\n2.0,1,0\n")
        assert main(["fit", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_rejected_input_leaves_no_output_directory(self, tmp_path):
        bad = tmp_path / "one_row.csv"
        bad.write_text("y,t,z\n1.0,0,0\n")
        out = tmp_path / "out"
        assert main(["fit", str(bad), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_non_convergence_exits_3(self, data_csv, tmp_path):
        out = tmp_path / "nc"
        code = main(["fit", data_csv, "--max-iter", "1", "--out-dir", str(out)])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False

    def test_failed_refit_leaves_only_its_summary(self, data_csv, tmp_path, capsys):
        # a previous fit's outputs would pass for the failed one's: diagnose
        # would load the old fit.json without complaint
        out = tmp_path / "refit"
        assert main(["fit", data_csv, "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            (*cli.FIT_OUTPUTS, "summary.json"))
        assert main(["fit", data_csv, "--max-iter", "1", "--out-dir", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert json.loads((out / "summary.json").read_text())["converged"] is False
        capsys.readouterr()
        assert main(["diagnose", "--fit", str(out / "fit.json"), "--out-dir", str(out)]) == 2
        assert "fit.json" in capsys.readouterr().err

    @staticmethod
    def _winner_stops_as(monkeypatch, reason):
        """Make the CLI's fit report its winner as stopped for ``reason``."""
        real_fit = cli.fit

        def unconverged(*a, **k):
            res = real_fit(*a, **k)
            trace = tuple(dataclasses.replace(r, stop_reason=reason) if r is res.winner else r
                          for r in res.trace)
            return dataclasses.replace(res, trace=trace)

        monkeypatch.setattr(cli, "fit", unconverged)

    def test_nonconverged_winner_not_reported_converged(self, data_csv, tmp_path,
                                                        monkeypatch, capsys):
        self._winner_stops_as(monkeypatch, "nonmonotone")
        out = tmp_path / "unconverged"
        assert main(["fit", data_csv, "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert "fit did not converge" in captured.out
        assert "fit converged" not in captured.out
        assert "warning" in captured.err
        assert "stopped as 'nonmonotone' without converging" in captured.err
        assert json.loads((out / "summary.json").read_text())["converged"] is False

    @pytest.mark.parametrize("reason", ["max_iter", "nonmonotone"])
    def test_warning_names_the_winners_stop_reason(self, data_csv, tmp_path, monkeypatch,
                                                   capsys, reason):
        self._winner_stops_as(monkeypatch, reason)
        out = tmp_path / "unconverged"
        assert main(["fit", data_csv, "--out-dir", str(out)]) == 0
        err = capsys.readouterr().err
        assert ("--max-iter 2000" in err) == (reason == "max_iter")
        assert (f"'{reason}'" in err) == (reason != "max_iter")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reasons"][reason] >= 1

    def test_one_cluster_keeps_the_naive_ses(self, tmp_path, capsys):
        # the sandwich needs two clusters; the fit and its naive SEs still go out
        ds, _ = simulate_four_strata(250, seed=70, dispersion=2.4)
        path = tmp_path / "one_cluster.csv"
        write_data_csv(path, ds, cluster=np.zeros(ds.n, dtype=int))
        out = tmp_path / "out"
        assert main(["fit", str(path), "--out-dir", str(out)]) == 0
        for name in ("params.csv", "effects.csv"):
            columns = read_csv_columns(out / name)
            assert all(float(v) > 0.0 for v in columns["se_naive"]), name
            assert set(columns["se_cluster"]) == {""}, name
        summary = json.loads((out / "summary.json").read_text())
        assert "at least 2 clusters" in summary["se_error"]
        assert "standard errors unavailable" in capsys.readouterr().err

    def test_tobit_end_to_end(self, tmp_path):
        ds, _ = simulate_four_strata(250, seed=71, dispersion=2.4, sigma=2.0,
                                     effect=3.0, censor=True)
        path = tmp_path / "tobit.csv"
        write_data_csv(path, ds)
        out = tmp_path / "tob_out"
        assert main(["fit", str(path), "--family", "tobit",
                     "--out-dir", str(out)]) == 0
        with open(out / "effects.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert "effect_observed" in rows[0]

    @pytest.mark.parametrize("family", ["normal", "tobit"])
    def test_ses_equal_the_library_pipeline(self, data_csv, tobit_csv, tmp_path, family):
        # cmd_fit runs its own SE sequence; it must give effect_table's and
        # natural_param_ses's numbers bit for bit (the CSVs hold float reprs)
        path = tobit_csv if family == "tobit" else data_csv
        out = tmp_path / "out"
        assert main(["fit", path, "--family", family, "--out-dir", str(out)]) == 0
        ds = read_dataset(path, 2, False, Family(family))
        res = fit(ds, Family(family))
        table, cov_n, cov_c = effect_table(res, ds)
        assert cov_c.n_clusters == 12
        effects = read_csv_columns(out / "effects.csv")
        columns = ["se_naive", "se_cluster"]
        if family == "tobit":
            columns += ["effect_observed", "se_naive_observed", "se_cluster_observed"]
        for name in ["effect"] + columns:
            assert np.array_equal([float(v) for v in effects[name]], getattr(table, name)), name
        params = read_csv_columns(out / "params.csv")
        for name, cov in (("se_naive", cov_n), ("se_cluster", cov_c)):
            got = [float(v) for v in params[name]]
            assert np.array_equal(got, natural_param_ses(res, cov)), name


class TestCmdDiagnose:
    def test_round_trip_byte_identical(self, data_csv, tmp_path):
        fit_dir = tmp_path / "fit"
        diag_dir = tmp_path / "diag"
        assert main(["fit", data_csv, "--out-dir", str(fit_dir)]) == 0
        assert main(["diagnose", "--fit", str(fit_dir / "fit.json"),
                     "--data", data_csv, "--out-dir", str(diag_dir)]) == 0
        for name in ("trace.csv", "posterior_hist.csv", "marginal_fit.csv"):
            assert (fit_dir / name).read_bytes() == (diag_dir / name).read_bytes()

    def test_fit_json_round_trip_keeps_trace_records(self, tmp_path):
        # seed 4: a start other than the first two converges, and some are pruned
        ds, _ = simulate_four_strata(100, seed=4, dispersion=3.0)
        res = fit(ds)
        flagged = dataclasses.replace(
            res.trace[0], floor_active=(True, False), frozen=((3, 1), (2, 0)),
            stop_reason="max_iter",
        )
        dropped = dataclasses.replace(res.trace[1], stop_reason="nonmonotone")
        res = dataclasses.replace(res, trace=(flagged, dropped) + res.trace[2:])
        want = [r.stop_reason for r in res.trace]
        assert {"tol", "pruned"} <= set(want[2:])
        path = tmp_path / "fit.json"
        save_fit(str(path), res, {"data": "cases.csv"})
        got, options = load_fit(str(path))
        assert options == {"data": "cases.csv"}
        assert len(got.trace) == len(res.trace)
        for a, b in zip(res.trace, got.trace):
            assert (a.mapping_id, a.loglik, a.iterations, a.converged) == (
                b.mapping_id, b.loglik, b.iterations, b.converged)
            assert a.floor_active == b.floor_active
            assert a.frozen == b.frozen
            assert a.stop_reason == b.stop_reason
            np.testing.assert_array_equal(a.params.locations, b.params.locations)
        assert [r.stop_reason for r in got.trace] == want

        payload = json.loads(path.read_text())
        for key in ("frozen", "stop_reason"):
            broken = json.loads(json.dumps(payload))
            del broken["trace"][0][key]
            path.write_text(json.dumps(broken))
            with pytest.raises(DataError, match="invalid fit file"):
                load_fit(str(path))

    def test_winner_must_agree_with_ties_and_trace(self, data_csv, tmp_path):
        fit_dir = tmp_path / "fit"
        assert main(["fit", data_csv, "--out-dir", str(fit_dir)]) == 0
        payload = json.loads((fit_dir / "fit.json").read_text())
        for ties in ([99], []):
            path = tmp_path / "broken.json"
            path.write_text(json.dumps({**payload, "tie_ids": ties}))
            message = re.escape(f"tie_ids {ties} names no trace record")
            with pytest.raises(DataError, match=f"invalid fit file .*{message}"):
                load_fit(str(path))
            assert main(["diagnose", "--fit", str(path), "--data", data_csv,
                         "--out-dir", str(tmp_path / "diag")]) == 2
        assert not (tmp_path / "diag").exists()

    def test_each_start_stored_once_and_previous_layout_read(self, data_csv, tmp_path):
        fit_dir = tmp_path / "fit"
        assert main(["fit", data_csv, "--out-dir", str(fit_dir)]) == 0
        payload = json.loads((fit_dir / "fit.json").read_text())
        assert set(payload) == {"data_options", "tie_ids", "scale_floor", "trace"}
        assert all("converged" not in r for r in payload["trace"])
        # earlier releases also wrote the winner's fields at the top level
        # and a converged flag per start
        res, _ = load_fit(str(fit_dir / "fit.json"))
        old = dict(payload, params=cli._params_to_dict(res.params), loglik=res.loglik,
                   mapping_id=res.mapping_id, iterations=res.iterations,
                   converged=res.converged, floor_active=list(res.floor_active),
                   frozen=[list(f) for f in res.frozen],
                   trace=[dict(r, converged=r["stop_reason"] == "tol")
                          for r in payload["trace"]])
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        got, options = load_fit(str(path))
        assert options == payload["data_options"]
        assert got.tie_ids == res.tie_ids and got.mapping_id == res.mapping_id
        assert got.loglik == res.loglik and got.converged == res.converged
        np.testing.assert_array_equal(got.params.locations, res.params.locations)
        assert [(r.mapping_id, r.loglik, r.stop_reason) for r in got.trace] == [
            (r.mapping_id, r.loglik, r.stop_reason) for r in res.trace]
        diag_new, diag_old = tmp_path / "diag_new", tmp_path / "diag_old"
        for fit_path, out in ((fit_dir / "fit.json", diag_new), (path, diag_old)):
            assert main(["diagnose", "--fit", str(fit_path), "--data", data_csv,
                         "--out-dir", str(out)]) == 0
        for name in ("trace.csv", "posterior_hist.csv", "marginal_fit.csv"):
            assert (diag_new / name).read_bytes() == (diag_old / name).read_bytes()

    def test_missing_fit_file_exits_2(self, tmp_path):
        assert main(["diagnose", "--fit", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_corrupt_fit_file_exits_2(self, tmp_path):
        bad = tmp_path / "fit.json"
        bad.write_text("{\"not\": \"a fit\"}")
        assert main(["diagnose", "--fit", str(bad), "--out-dir", str(tmp_path)]) == 2

    @staticmethod
    def assert_rejected(argv, diag_dir, capsys, message):
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(diag_dir)]) == 2
        assert re.search(f"^error: {message}", capsys.readouterr().err, re.M)
        assert not diag_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("y,t,z\n1.0,0,0\n2.0,1,1,7\n", "row 3: 4 fields, the header names 3"),
        ("y,t,z,y\n1.0,0,0,2\n2.0,1,1,3\n", "header names column 'y' more than once"),
    ], ids=["surplus-field", "repeated-column"])
    def test_malformed_csv_exits_2(self, fit_json, tmp_path, capsys, text, message):
        data = tmp_path / "cases.csv"
        data.write_text(text)
        self.assert_rejected(["diagnose", "--fit", str(fit_json), "--data", str(data)],
                             tmp_path / "diag", capsys, message)

    @pytest.mark.parametrize("key", ["levels", "dichotomize", "family"])
    def test_fit_file_without_a_data_option_exits_2(self, fit_json, data_csv, tmp_path,
                                                     capsys, key):
        payload = json.loads(fit_json.read_text())
        del payload["data_options"][key]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(payload))
        self.assert_rejected(["diagnose", "--fit", str(path), "--data", data_csv],
                             tmp_path / "diag", capsys, f"invalid fit file .*'{key}'")


    @pytest.mark.parametrize("field", ["probs", "locations", "scales"])
    def test_non_finite_parameter_in_fit_file_exits_2(self, fit_json, data_csv, tmp_path,
                                                       capsys, field):
        # json reads NaN; the parameter rules reject it before any diagnostic
        payload = json.loads(fit_json.read_text())
        values = payload["trace"][0]["params"][field]
        if isinstance(values[0], list):
            values = values[0]
        values[0] = float("nan")
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["diagnose", "--fit", str(path), "--data", data_csv,
                     "--out-dir", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: invalid fit file .*{field} must be finite\n", err), err
        assert not (tmp_path / "diag").exists()


class TestCmdSimulate:
    def _config(self, tmp_path, text):
        path = tmp_path / "grid.cfg"
        path.write_text(text)
        return str(path)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = self._config(
            tmp_path, "n_per_arm = 60\ndispersion_sd = 2.4\nreplicates = 2\n"
        )
        out_a = tmp_path / "s1"
        out_b = tmp_path / "s2"
        assert main(["simulate", cfg, "--seed", "9", "--out-dir", str(out_a)]) == 0
        assert main(["simulate", cfg, "--seed", "9", "--out-dir", str(out_b)]) == 0
        for name in ("replicates.csv", "summary.csv", "grid_summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_grid_cross_product_accepted(self, tmp_path):
        cfg = self._config(
            tmp_path,
            "n_per_arm = 60, 80\ndispersion_sd = 1.6, 2.4\n"
            "prob_scenario = unequal, uniform\nreplicates = 1\n",
        )
        out = tmp_path / "grid"
        assert main(["simulate", cfg, "--seed", "3", "--out-dir", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8

    def test_misspec_shapes_run_against_baseline(self, tmp_path):
        cfg = self._config(
            tmp_path,
            "n_per_arm = 60, 80\ndispersion_sd = 2.4\nreplicates = 2\n"
            "shapes = heavy_tail:10, skewed:1\n",
        )
        out = tmp_path / "mis"
        assert main(["simulate", cfg, "--seed", "7", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "grid_summary.json").read_text())
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        labels = ["normal", "heavy_tail:10", "skewed:1"]
        assert [r["shape"] for r in rows] == labels * 2
        assert payload["n_configs"] == 2
        for n, study, cell in zip((60, 80), payload["misspecification"],
                                  (rows[:3], rows[3:])):
            frac = {r["shape"]: float(r["fraction_label_correct"]) for r in cell}
            assert study["n_per_arm"] == n
            assert study["baseline_label_correct"] == frac["normal"]
            assert study["degradation"] == {
                label: frac["normal"] - frac[label] for label in labels[1:]}

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = self._config(tmp_path, "翻 = 1\n")
        assert main(["simulate", cfg, "--seed", "1", "--out-dir", str(tmp_path)]) == 2
        cfg = self._config(tmp_path, "n_per_arm = -5\n")
        assert main(["simulate", cfg, "--seed", "1", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", [
        "tol = nan", "tol = -1", "max_iter = 0", "k_levels = 0", "k_levels = 4",
        "dispersion_sd = nan", "sigma = inf", "effect = nan", "shape = skewed:nan",
        "shape = skewed:inf", "shapes = heavy_tail:inf", "k_levels = 1\nprob_scenario = one_small",
    ])
    def test_bad_fit_setting_exits_2_before_any_replicate(self, tmp_path, line, monkeypatch):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cli, "run_study", no_replicate)
        cfg = self._config(tmp_path, f"n_per_arm = 60\nreplicates = 2\n{line}\n")
        with pytest.raises(DataError, match="invalid config value"):
            read_sim_config(cfg, seed=1)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--seed", "1", "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_shape_and_shapes_together_rejected(self, tmp_path):
        cfg = self._config(tmp_path, "n_per_arm = 60\nshape = skewed:1.5\n"
                                     "shapes = heavy_tail:10\n")
        with pytest.raises(DataError, match="both 'shape' and 'shapes'"):
            read_sim_config(cfg, seed=1)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--seed", "1", "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_repeated_key_rejected(self, tmp_path):
        cfg = self._config(tmp_path, "n_per_arm = 100\n# comment\nreplicates = 2\n"
                                     "n_per_arm = 300\n")
        with pytest.raises(DataError, match="line 4: key 'n_per_arm' already set on line 1"):
            read_sim_config(cfg, seed=1)
        # ':' and '=' set the same key
        cfg = self._config(tmp_path, "tol = 1e-6\ntol: 1e-7\n")
        with pytest.raises(DataError, match="line 2: key 'tol' already set on line 1"):
            read_sim_config(cfg, seed=1)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--seed", "1", "--out-dir", str(out)]) == 2

    def test_read_sim_config_defaults(self, tmp_path):
        cfg = self._config(tmp_path, "n_per_arm = 100\n# comment\n")
        configs, paired = read_sim_config(cfg, seed=5)
        assert paired is False
        assert len(configs) == 1
        assert configs[0].seed == 5
        assert configs[0].prob_scenario == "unequal"
        defaults = SimConfig()
        for key in ("dispersion_sd", "shape", "shape_param", "replicates", "k_levels",
                    "effect", "sigma", "starts", "tol", "max_iter"):
            assert getattr(configs[0], key) == getattr(defaults, key)
        assert (defaults.tol, defaults.max_iter, defaults.starts) == (
            FitConfig.tol, FitConfig.max_iter, FitConfig.starts)

    def test_read_sim_config_accepts_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn_per_arm = 60\nreplicates = 1\n")
        configs, _ = read_sim_config(str(cfg), seed=1)
        assert [(c.n_per_arm, c.replicates) for c in configs] == [(60, 1)]

    def test_read_sim_config_grid_order(self, tmp_path):
        cfg = self._config(
            tmp_path,
            "n_per_arm = 60, 80\ndispersion_sd = 1.6, 2.4\nprob_scenario = unequal, uniform\n"
            "shapes = skewed:1, heavy_tail:10, normal, skewed:1\n",
        )
        configs, paired = read_sim_config(cfg, seed=3)
        assert paired is True
        # the shape is the innermost axis, the normal baseline first, and a
        # repeated label runs once
        shapes = [("normal", None), ("skewed", 1.0), ("heavy_tail", 10.0)]
        assert [(c.n_per_arm, c.dispersion_sd, c.prob_scenario, (c.shape, c.shape_param))
                for c in configs] == list(itertools.product(
                    [60, 80], [1.6, 2.4], ["unequal", "uniform"], shapes))
        # a label keeps its first position and its last parameter
        cfg = self._config(tmp_path, "n_per_arm = 60\n"
                                     "shapes = heavy_tail:10.0000001, skewed:1, heavy_tail:10\n")
        configs, _ = read_sim_config(cfg, seed=3)
        assert [(c.shape, c.shape_param) for c in configs] == [
            ("normal", None), ("heavy_tail", 10.0), ("skewed", 1.0)]
        # 'shapes = normal' is a study of the baseline alone; 'shape' is no study
        for text, paired_want, shape in (("shapes = normal", True, ("normal", None)),
                                         ("shape = skewed:1.5", False, ("skewed", 1.5))):
            cfg = self._config(tmp_path, f"n_per_arm = 60\n{text}\n")
            configs, paired = read_sim_config(cfg, seed=3)
            assert paired is paired_want
            assert [(c.shape, c.shape_param) for c in configs] == [shape]

    def test_smoke_run_is_fast(self, tmp_path):
        import time

        cfg = self._config(
            tmp_path, "n_per_arm = 100\ndispersion_sd = 2.4\nreplicates = 1\n"
        )
        out = tmp_path / "smoke"
        start = time.time()
        assert main(["simulate", cfg, "--seed", "2", "--out-dir", str(out)]) == 0
        assert time.time() - start < 5.0


class Unprintable:
    def __str__(self):
        raise ValueError("cannot render")


def fresh_csv(path, rows):
    """What ``_write_csv`` wrote when it opened the file with ``open(path, "w")``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rows[0]))
        for row in rows:
            writer.writerow([cli._fmt(v) for v in row.values()])


def fresh_json(path, payload):
    """What ``_write_json`` wrote when it opened the file with ``open(path, "w")``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def tree_bytes(out) -> dict[str, bytes]:
    """Each file of ``out`` by name, its own path written as <out>."""
    return {p.name: p.read_bytes().replace(str(out).encode(), b"<out>")
            for p in sorted(out.iterdir())}


class TestWriters:
    ROWS = [{"name": "a,b", "value": 1.5, "se": None, "ok": True},
            {"name": 'say "hi"', "value": np.float64(-0.1), "se": 2, "ok": np.bool_(False)}]
    PAYLOAD = {"b": [1.0, None, "x"], "a": {"nested": 0.1 + 0.2, "flag": False}}

    @pytest.mark.parametrize("kind", ["csv", "json"])
    def test_rewrite_over_a_longer_file_equals_a_fresh_write(self, tmp_path, kind):
        write, fresh, value = {
            "csv": (cli._write_csv, fresh_csv, self.ROWS),
            "json": (cli._write_json, fresh_json, self.PAYLOAD),
        }[kind]
        old, new, ref = tmp_path / "old", tmp_path / "new", tmp_path / "ref"
        old.write_bytes(b"stale line\r\n" * 200)
        write(str(old), value)
        write(str(new), value)
        fresh(str(ref), value)
        assert old.read_bytes() == new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("kind", ["csv", "json"])
    def test_render_error_leaves_the_old_file(self, tmp_path, kind):
        path = tmp_path / "out"
        path.write_bytes(b"previous\r\ncontents\n")
        with pytest.raises((ValueError, TypeError)):
            if kind == "csv":
                cli._write_csv(str(path), [*self.ROWS, {"name": Unprintable(), "value": 0.0,
                                                         "se": None, "ok": True}])
            else:
                cli._write_json(str(path), {**self.PAYLOAD, "c": object()})
        assert path.read_bytes() == b"previous\r\ncontents\n"

    def test_refit_into_a_used_directory_equals_a_fresh_one(self, data_csv, tobit_csv,
                                                             tmp_path):
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        # the tobit fit leaves files of other lengths behind
        assert main(["fit", tobit_csv, "--family", "tobit", "--out-dir", str(used)]) == 0
        before = tree_bytes(used)
        assert main(["fit", data_csv, "--out-dir", str(used)]) == 0
        assert main(["fit", data_csv, "--out-dir", str(fresh)]) == 0
        after = tree_bytes(used)
        assert after == tree_bytes(fresh)
        assert any(len(before[name]) > len(after[name]) for name in after)

    def test_resimulate_into_a_used_directory_equals_a_fresh_one(self, tmp_path):
        big, small = tmp_path / "big.cfg", tmp_path / "small.cfg"
        big.write_text("n_per_arm = 60, 80\ndispersion_sd = 2.4\nreplicates = 2\n")
        small.write_text("n_per_arm = 60\ndispersion_sd = 2.4\nreplicates = 1\n")
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main(["simulate", str(big), "--seed", "4", "--out-dir", str(used)]) == 0
        assert main(["simulate", str(small), "--seed", "4", "--out-dir", str(used)]) == 0
        assert main(["simulate", str(small), "--seed", "4", "--out-dir", str(fresh)]) == 0
        assert tree_bytes(used) == tree_bytes(fresh)

    def test_no_output_is_truncated_on_open(self, data_csv, tmp_path, monkeypatch):
        # opening an existing file with O_TRUNC can wait on disk I/O (ext4
        # flushes a file replaced by truncation), which no unit test sees
        # as time; every output must go through os.open without it
        real_open, calls = os.open, []

        def recording_open(path, flags, *args, **kwargs):
            calls.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording_open)
        out = tmp_path / "twice"
        for _ in range(2):
            assert main(["fit", data_csv, "--out-dir", str(out)]) == 0
        names = sorted((*cli.FIT_OUTPUTS, "summary.json"))
        assert sorted(os.path.basename(path) for path, _ in calls) == sorted(names * 2)
        assert all(os.path.dirname(path) == str(out) for path, _ in calls)
        assert not any(flags & os.O_TRUNC for _, flags in calls)


@pytest.mark.parametrize("error, code", [
    (DataError, 2), (WarmStartError, 2), (ValueError, 2),
    (EstimationError, 3), (InferenceError, 3),
])
def test_exit_code_per_error(tmp_path, monkeypatch, capsys, error, code):
    def fail(args):
        raise error("no luck")

    monkeypatch.setattr(cli, "cmd_diagnose", fail)
    assert main(["diagnose", "--fit", "fit.json", "--out-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err == "error: no luck\n"


@pytest.mark.parametrize("case", ["fit-directory", "out-dir-is-a-file", "diagnose-directory",
                                  "simulate-directory", "missing-file"])
def test_os_error_exits_2_naming_the_path(data_csv, tmp_path, capsys, case):
    taken, out = tmp_path / "taken", str(tmp_path / "out")
    taken.write_text("")
    argv, path = {
        "fit-directory": (["fit", str(tmp_path), "--out-dir", out], tmp_path),
        "out-dir-is-a-file": (["fit", data_csv, "--out-dir", str(taken)], taken),
        "diagnose-directory": (["diagnose", "--fit", str(tmp_path), "--out-dir", out], tmp_path),
        "simulate-directory": (["simulate", str(tmp_path), "--seed", "1", "--out-dir", out],
                               tmp_path),
        "missing-file": (["fit", str(tmp_path / "none.csv"), "--out-dir", out],
                         tmp_path / "none.csv"),
    }[case]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
