import json
import math

import numpy as np
import pytest

from magnon_memory import (
    BosonModel,
    DomainError,
    PhysicalParams,
    build_exact,
    chi_spectrum,
    decay_rate,
    default_broadening,
    effective_coupling,
    evolve_exact,
    gaussian_profile,
    max_n_for_temperature,
    numeric_fidelity,
    reduce_electron,
    swap_time,
)
from magnon_memory.cli import RunConfig, main, reproduce_figure, run_sweep
from magnon_memory.exact import product_state


def _base_params(N=8, J=1.0, B0=0.0, lam=1.0, s=0.5):
    return {"N": N, "s": s, "J": J, "B0": B0, "lambda": lam,
            "g_e": 1.0, "g_n": 1.0, "mu_B": 1.0, "mu_n": 1.0}


def _write_config(path, **overrides):
    cfg = {
        "params": _base_params(),
        "profile": {"kind": "gaussian", "sigma": 2.0},
        "output": {"dir": str(path.parent / "out")},
        "seed": 1,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


class TestThermalBound:
    def test_boundary_values(self):
        assert max_n_for_temperature(4 * 1.0 * 0.5, J=1.0, s=0.5) == 2
        assert max_n_for_temperature(2 * 1.0 * 0.5, J=1.0, s=0.5) == 4

    def test_above_premise_rejected(self):
        with pytest.raises(DomainError):
            max_n_for_temperature(4.1, J=1.0, s=1.0)

    def test_cold_limit_capped(self):
        assert max_n_for_temperature(1e-30, J=1.0, s=0.5) == 1_000_000
        assert max_n_for_temperature(1e-30, J=1.0, s=0.5, cap=500) == 500

    def test_monotone_over_grid(self):
        grid = np.linspace(1e-4, 2.0, 50)
        values = [max_n_for_temperature(k, J=1.0, s=0.5) for k in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        for bad in (dict(kbt=0.0, J=1.0, s=0.5),
                    dict(kbt=1.0, J=0.0, s=0.5),
                    dict(kbt=1.0, J=1.0, s=0.0)):
            with pytest.raises(DomainError):
                max_n_for_temperature(**bad)


class TestRunConfig:
    def test_bad_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DomainError):
            RunConfig.from_file(str(p))

    def test_missing_param_keys(self):
        with pytest.raises(DomainError, match="missing"):
            RunConfig.from_dict({"params": {"N": 4}})

    def test_hash_tracks_content_and_seed(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile)
        a = RunConfig.from_file(str(cfgfile))
        b = RunConfig.from_file(str(cfgfile))
        assert a.config_hash == b.config_hash
        _write_config(cfgfile, eta=0.3)
        c = RunConfig.from_file(str(cfgfile))
        assert c.config_hash != a.config_hash
        d = RunConfig.from_file(str(cfgfile), seed_override=99)
        assert d.config_hash != c.config_hash

    def test_params_required_when_absent(self):
        cfg = RunConfig.from_dict({})
        with pytest.raises(DomainError):
            cfg.require_params()


class TestSweep:
    def test_single_point_matches_direct_calls(self):
        raw = {
            "params": _base_params(N=100, J=50.0),
            "sweep": {"axes": [{"name": "sigma", "grid": [20.0]}]},
        }
        cfg = RunConfig.from_dict(raw)
        result = run_sweep(cfg)
        assert len(result.rows) == 1
        row = dict(zip(result.header, result.rows[0]))

        params = PhysicalParams(N=100, J=50.0, s=0.5)
        chi = chi_spectrum(gaussian_profile(100, 20.0))
        eta = default_broadening(params)
        assert row["g"] == effective_coupling(params)
        assert row["t0"] == swap_time(params)
        assert row["eta"] == eta
        assert row["gamma"] == decay_rate(params, chi, eta)
        model = BosonModel(params, chi)
        assert row["F_numeric_t0"] == float(
            numeric_fidelity(model, [swap_time(params)]).f[0])
        assert row["error"] == ""

    def test_failed_point_is_tagged_and_sweep_continues(self):
        # tiny eta at exact resonance drives gamma far above g: the
        # large-N formula is overdamped there and the row records it
        N, s, lam = 6, 0.5, 1.0
        g = lam * math.sqrt(s / (2 * N))
        b0 = 2 * g - 2 * 1.0 * s * (1 - math.cos(2 * math.pi * 2 / N))
        raw = {
            "params": _base_params(N=N, J=1.0, B0=b0),
            "profile": {"kind": "custom",
                        "lambdas": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
            "sweep": {"axes": [{"name": "eta", "grid": [1e-9, 0.5]}]},
        }
        result = run_sweep(RunConfig.from_dict(raw))
        assert len(result.rows) == 2
        first = dict(zip(result.header, result.rows[0]))
        second = dict(zip(result.header, result.rows[1]))
        assert "F_analytic_t0" in first["error"]
        assert first["F_analytic_t0"] == ""
        assert first["gamma"] > g  # overdamped indeed
        # the wide-eta point recovers the analytic value; the only failure
        # left on it is the storage run, which needs B0 = 0
        assert "F_analytic_t0" not in second["error"]
        assert second["F_analytic_t0"] != ""

    def test_empty_axis_rejected(self):
        raw = {"params": _base_params(),
               "sweep": {"axes": [{"name": "sigma", "grid": []}]}}
        with pytest.raises(DomainError):
            run_sweep(RunConfig.from_dict(raw))

    def test_cartesian_product_order(self):
        raw = {
            "params": _base_params(N=12, J=5.0),
            "sweep": {"axes": [
                {"name": "sigma", "grid": [2.0, 4.0]},
                {"name": "lambda", "grid": [1.0, 2.0]},
            ]},
        }
        result = run_sweep(RunConfig.from_dict(raw))
        points = [(r[0], r[1]) for r in result.rows]
        assert points == [(2.0, 1.0), (2.0, 2.0), (4.0, 1.0), (4.0, 2.0)]


class TestFigures:
    def test_fig3_dataset(self):
        header, rows, sidecar = reproduce_figure("fig3")
        assert len(rows) == 3 * 99
        assert sidecar["N"] == 100
        by_sigma = {}
        cols = dict((name, i) for i, name in enumerate(header))
        for row in rows:
            by_sigma.setdefault(row[cols["sigma_over_N"]], []).append(
                row[cols["abs_chi"]])
        weights = [np.sum(np.square(by_sigma[f])) for f in (0.05, 0.1, 0.2)]
        assert weights[0] > weights[1] > weights[2]
        for f in (0.05, 0.1, 0.2):
            assert by_sigma[f][0] > by_sigma[f][49]

    def test_fig4_dataset(self):
        header, rows, sidecar = reproduce_figure("fig4")
        cols = dict((name, i) for i, name in enumerate(header))
        marked = [r for r in rows if r[cols["at_storage_instant"]]]
        assert len(marked) == 1
        f_at_mark = marked[0][cols["fidelity"]]
        assert abs(f_at_mark - (1 - math.pi * 0.02 / 8)) < 0.002
        assert rows[0][cols["fidelity"]] == pytest.approx(1.0, abs=1e-12)

    def test_fig5_dataset(self):
        header, rows, sidecar = reproduce_figure("fig5")
        cols = dict((name, i) for i, name in enumerate(header))
        marked = [r for r in rows if r[cols["at_storage_instant"]]]
        assert len(marked) == 1
        assert 0.45 <= marked[0][cols["fidelity"]] <= 0.55
        assert abs(sidecar["g_over_2_omega_shift"]) == pytest.approx(0.025)

    def test_unknown_figure(self):
        with pytest.raises(DomainError):
            reproduce_figure("fig9")


class TestMainEntry:
    def test_dispersion_and_chi(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile)
        assert main(["--config", str(cfgfile), "dispersion"]) == 0
        assert main(["--config", str(cfgfile), "chi"]) == 0
        lines = (tmp_path / "out" / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "k,omega"
        assert len(lines) == 2 + 8

    def test_store_and_retrieve_json(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, profile={"kind": "homogeneous"},
                      rho=[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]])
        assert main(["--config", str(cfgfile), "store"]) == 0
        doc = json.loads((tmp_path / "out" / "store.json").read_text())
        assert doc["leakage"] <= 1e-10
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert main(["--config", str(cfgfile), "retrieve"]) == 0
        doc = json.loads((tmp_path / "out" / "retrieve.json").read_text())
        assert doc["process_fidelity"] >= 1 - 1e-9
        assert doc["fidelity_vs_input"] == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_regimes(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, params=_base_params(N=40, J=20.0),
                      profile={"kind": "gaussian", "sigma": 8.0},
                      time_grid={"t_max_over_t0": 1.0, "points": 16})
        for regime in ("large-n", "small-n", "numeric"):
            assert main(["--config", str(cfgfile), "fidelity",
                         "--regime", regime]) == 0
        body = (tmp_path / "out" / "fidelity_numeric.csv").read_text().splitlines()
        assert body[1] == "t,F_analytic,F_numeric,regime"
        sidecar = json.loads(
            (tmp_path / "out" / "fidelity_large-n_params.json").read_text())
        assert {"gamma", "eta", "phi", "g"} <= set(sidecar)

    def test_oracle_compare(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, params=_base_params(N=4, J=1.0),
                      profile={"kind": "homogeneous"},
                      time_grid={"t_max_over_t0": 2.0, "points": 25})
        assert main(["--config", str(cfgfile), "oracle-compare"]) == 0
        sidecar = json.loads(
            (tmp_path / "out" / "oracle_compare_params.json").read_text())
        assert sidecar["max_abs_dev"] <= 0.05

    def test_oracle_compare_matches_per_point_reference(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfg = _write_config(cfgfile, params=_base_params(N=5, J=2.3, B0=0.3),
                            profile={"kind": "gaussian", "sigma": 1.8},
                            time_grid={"t_max_over_t0": 2.5, "points": 31})
        assert main(["--config", str(cfgfile), "oracle-compare"]) == 0
        lines = (tmp_path / "out" / "oracle_compare.csv").read_text().splitlines()
        assert lines[1] == "t,pop_exact,pop_jc,abs_dev"
        cells = [line.split(",") for line in lines[2:]]
        sidecar = json.loads(
            (tmp_path / "out" / "oracle_compare_params.json").read_text())

        params = RunConfig.from_dict(cfg).params
        ham = build_exact(params, gaussian_profile(5, 1.8))
        psi0 = product_state(ham.basis, electron=0)
        g = effective_coupling(params)
        ts = np.linspace(0.0, 2.5 * swap_time(params), 31)
        assert len(cells) == ts.size
        for t, (t_cell, pop_cell, jc_cell, dev_cell) in zip(ts, cells):
            jc = math.cos(g * t) ** 2
            assert t_cell == format(float(t), ".16e")
            assert jc_cell == format(jc, ".16e")
            pop = reduce_electron(evolve_exact(ham, psi0, t)).rho[0, 0].real
            assert abs(float(pop_cell) - pop) <= 1e-12
            assert abs(float(dev_cell) - abs(pop - jc)) <= 1e-12
        assert sidecar["max_abs_dev"] == max(float(c[3]) for c in cells)

    def test_oracle_compare_over_the_cap_exits_2(self, tmp_path, capsys):
        # 2 * 2^40 states: the cap must fire before any allocation of that size
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, params=_base_params(N=40),
                      profile={"kind": "homogeneous"})
        assert main(["--config", str(cfgfile), "oracle-compare"]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_profile_inherits_declared_coupling_scale(self, tmp_path):
        # with lambda != 1 the homogeneous profile must pick up the same
        # scale, or the exact route and the cos^2(gt) prediction would
        # silently disagree
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, params=_base_params(N=4, J=1.0, lam=2.0),
                      profile={"kind": "homogeneous"},
                      time_grid={"t_max_over_t0": 2.0, "points": 25})
        assert main(["--config", str(cfgfile), "oracle-compare"]) == 0
        sidecar = json.loads(
            (tmp_path / "out" / "oracle_compare_params.json").read_text())
        assert sidecar["max_abs_dev"] <= 1e-10

    def test_design_n(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, kbt_grid=[2.0, 1.0, 0.5])
        assert main(["--config", str(cfgfile), "design-n"]) == 0
        lines = (tmp_path / "out" / "design_n.csv").read_text().splitlines()
        values = [int(line.split(",")[1]) for line in lines[2:]]
        assert values == [2, 4, 6]

    def test_sweep_outputs_are_byte_identical(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, params=_base_params(N=30, J=10.0),
                      sweep={"axes": [{"name": "sigma", "grid": [3.0, 6.0]}]})
        assert main(["--config", str(cfgfile), "sweep"]) == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert main(["--config", str(cfgfile), "sweep"]) == 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first
        # a mutated config changes the embedded hash
        _write_config(cfgfile, params=_base_params(N=30, J=10.0),
                      sweep={"axes": [{"name": "sigma", "grid": [3.0, 7.0]}]})
        assert main(["--config", str(cfgfile), "sweep"]) == 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() != first

    def test_reproduce_figure_without_config(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["reproduce-figure", "fig3", "--out", str(out)]) == 0
        assert (out / "fig3.csv").exists()

    def test_json_format(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile)
        assert main(["--config", str(cfgfile), "dispersion",
                     "--format", "json"]) == 0
        doc = json.loads((tmp_path / "out" / "dispersion.json").read_text())
        assert doc["header"] == ["k", "omega"]
        assert len(doc["rows"]) == 8

    def test_exit_code_config_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.json"),
                     "dispersion"]) in (2, 4)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"profile": {"kind": "homogeneous"}}))
        assert main(["--config", str(cfgfile), "dispersion"]) == 2
        _write_config(cfgfile)
        assert main(["--config", str(cfgfile), "reproduce-figure", "fig9"]) == 2

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_workers_flag_rejected(self, tmp_path, where):
        # sweeps run serially; argparse exits 2 on the unknown flag
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, sweep={"axes": [{"name": "sigma", "grid": [2.0]}]})
        argv = ["--config", str(cfgfile), "sweep"]
        argv = ["--workers", "2"] + argv if where == "before" else argv + ["--workers", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_exit_code_regime_error(self, tmp_path):
        # overdamped point: gamma >> g via a resonant single-site profile
        # and a vanishing Lorentzian width
        N, s = 6, 0.5
        g = math.sqrt(s / (2 * N))
        b0 = 2 * g - 2 * 1.0 * s * (1 - math.cos(2 * math.pi * 2 / N))
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile, params=_base_params(N=N, J=1.0, B0=b0),
                      profile={"kind": "custom",
                               "lambdas": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
                      eta=1e-9)
        assert main(["--config", str(cfgfile), "fidelity",
                     "--regime", "large-n"]) == 3

    def test_exit_code_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile)
        assert main(["--config", str(cfgfile), "dispersion",
                     "--out", str(blocker)]) == 4

    def test_log_level_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAGNON_MEMORY_LOG", "DEBUG")
        cfgfile = tmp_path / "c.json"
        _write_config(cfgfile)
        assert main(["--config", str(cfgfile), "dispersion"]) == 0
