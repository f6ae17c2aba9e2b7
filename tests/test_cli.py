"""Front-end: parsing, artifact formats, exit codes, reproducibility."""

import os
import subprocess
import sys

import numpy as np
import pytest

from twowell import cli
from twowell import engine as en
from twowell import inapprox as ia
from twowell import matgeo as mg


def run_cli(argv):
    """main() with argparse SystemExit folded into the return code."""
    try:
        return cli.main(argv)
    except SystemExit as err:
        return err.code


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli(["run", "--delta", "0.5", "--steps", "2",
                    "--budget", "15000", "--outdir", str(out)])
    assert code == 0
    return out


class TestRun:
    def test_emits_all_artifacts(self, run_dir):
        for name in ("metrics.tsv", "mesh.txt", "phases.svg", "report.txt"):
            assert (run_dir / name).exists()

    def test_metrics_format(self, run_dir):
        lines = (run_dir / "metrics.tsv").read_text().splitlines()
        headers = [ln for ln in lines if not ln.startswith("#")]
        assert headers[0] == ("k\tl1_chi\tl1_grad\tbv_chi\tbv_grad"
                              "\tperim_sum\tfrozen\tmean_dist")
        assert len(headers) == 1 + 3      # k = 0, 1, 2
        assert any(ln.startswith("# config ") for ln in lines)
        assert any(ln.startswith("# seed ") for ln in lines)
        first = headers[1].split("\t")
        assert first[0] == "0"
        assert float(first[5]) > 0        # initial perimeter

    def test_mesh_format(self, run_dir):
        lines = [ln for ln in (run_dir / "mesh.txt").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert all(len(ln.split()) == 16 for ln in lines)
        ids = [int(ln.split()[0]) for ln in lines]
        assert len(set(ids)) == len(ids)

    def test_mesh_round_trip(self, run_dir):
        verts, grads, offs, stages, delta = cli.read_mesh(
            str(run_dir / "mesh.txt"))
        assert delta == 0.5
        assert verts.shape[0] == grads.shape[0] == offs.shape[0]
        assert np.isfinite(verts).all()
        assert stages.min() >= 0
        # %.17g round-trips float64 exactly: vertex coordinates must
        # reproduce the triangulated area of the unit square
        from twowell import covering as cv
        assert cv.tri_areas(verts).sum() == pytest.approx(1.0, abs=1e-12)

    def test_mesh_bytes_per_cell(self, tmp_path):
        # gradients are formatted per table row; the file holds the bytes
        # of formatting every cell's sixteen columns on its own
        cfg = en.EngineConfig(cell_budget=5_000, max_steps=2,
                              track_bv=False)
        eng = en.Engine(en.unit_square_domain(),
                        ia.stage_representative(2, 0.5), 0.5, cfg)
        eng.run()
        st = eng.state
        assert eng.table.grads.shape[0] > 2
        path = tmp_path / "mesh.txt"
        cli.write_mesh(str(path), st, cli.RunConfig())
        reals = np.concatenate([st.verts.reshape(-1, 6),
                                st.grads.reshape(-1, 4), st.offs], axis=1)
        fmt = "%d %d %d %d " + " ".join(["%.17g"] * 12) + "\n"
        body = "".join(fmt % (i, p, s, f, *r) for i, p, s, f, r in zip(
            st.ids, st.parents, st.stages, st.frozen, reals))
        text = path.read_text()
        head = text[:len(text) - len(body)]
        assert text.endswith(body)
        assert all(ln.startswith("#") for ln in head.splitlines())

    def test_svg_structure(self, run_dir):
        svg = (run_dir / "phases.svg").read_text()
        assert svg.startswith("<?xml")
        assert svg.count("<polygon") == len(
            [ln for ln in (run_dir / "mesh.txt").read_text().splitlines()
             if ln and not ln.startswith("#")])
        assert "#3b6fb8" in svg and "#d97130" in svg
        assert "config" in svg and "seed" in svg

    def test_report_keys(self, run_dir):
        text = (run_dir / "report.txt").read_text()
        for key in ("c_tilde", "rho_bv", "theta0_measured",
                    "theta0_constants", "config", "seed", "h0"):
            assert f"{key}: " in text

    def test_byte_identical_rerun(self, run_dir, tmp_path):
        code = run_cli(["run", "--delta", "0.5", "--steps", "2",
                        "--budget", "15000", "--outdir", str(tmp_path)])
        assert code == 0
        for name in ("metrics.tsv", "mesh.txt", "phases.svg", "report.txt"):
            assert (tmp_path / name).read_bytes() \
                == (run_dir / name).read_bytes()

    def test_zero_steps_plots_only(self, tmp_path):
        code = run_cli(["run", "--steps", "0", "--outdir", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["phases.svg"]

    def test_matrix_boundary(self, tmp_path):
        M = ia.stage_representative(2, 0.5)
        text = ",".join("%.17g" % x for x in M.ravel())
        code = run_cli(["run", "--boundary", text, "--steps", "1",
                        "--budget", "15000", "--outdir", str(tmp_path)])
        assert code == 0

    def test_large_delta(self, tmp_path):
        # the calibrated aspect sits below the ladder's top rung
        assert run_cli(["run", "--delta", "4", "--outdir",
                        str(tmp_path)]) == 0
        assert (tmp_path / "report.txt").exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("steps = 1   # overridden below\nbudget = 15000\n"
                           "delta = 0.5\n")
        out = tmp_path / "out"
        code = run_cli(["run", "--config", str(cfgfile), "--steps", "2",
                        "--outdir", str(out)])
        assert code == 0
        rows = [ln for ln in (out / "metrics.tsv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 1 + 3         # flag wins over the file

    def test_domain_file(self, tmp_path):
        # the unit square's two triangles, read from a file, give the
        # cells of the built-in domain; the "#" lines differ because the
        # config digest includes the domain string
        domain = tmp_path / "square.txt"
        domain.write_text("0 0 1 0 1 1\n0 0 1 1 0 1\n")
        cells = {}
        for name, spec in (("file", str(domain)), ("builtin", "unit-square")):
            out = tmp_path / name
            code = run_cli(["run", "--domain", spec, "--budget", "5000",
                            "--steps", "2", "--outdir", str(out)])
            assert code == 0
            cells[name] = [ln for ln in
                           (out / "mesh.txt").read_text().splitlines()
                           if not ln.startswith("#")]
        assert len(cells["builtin"]) > 2
        assert cells["file"] == cells["builtin"]


class TestRunErrors:
    def test_malformed_boundary_triple(self):
        assert run_cli(["run", "--boundary", "branch=1,mu=0.3"]) == 2

    def test_wrong_entry_count(self):
        assert run_cli(["run", "--boundary", "1,0,1"]) == 2

    def test_non_numeric_boundary(self):
        assert run_cli(["run", "--boundary", "branch=1,mu=x,lambda=0.2"]) == 2

    def test_boundary_on_hull_face_fails_run(self, tmp_path):
        # parses fine, rejected by the engine: exit 1 with diagnostics
        code = run_cli(["run", "--boundary", "1,0.25,0,1",
                        "--outdir", str(tmp_path)])
        assert code == 1

    def test_unreadable_domain(self, tmp_path):
        assert run_cli(["run", "--domain", str(tmp_path / "nope.txt")]) == 1

    def test_domain_file_without_six_reals(self, tmp_path):
        domain = tmp_path / "bad.txt"
        domain.write_text("0 0 1 0 1\n")
        assert run_cli(["run", "--domain", str(domain),
                        "--outdir", str(tmp_path)]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("stepz = 3\n")
        assert run_cli(["run", "--config", str(cfgfile)]) == 2


class TestVerify:
    def test_single_suite(self, capsys):
        code = run_cli(["verify", "matgeo", "--delta", "0.5",
                        "--samples", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matgeo\tpass" in out

    def test_all_suites(self, capsys):
        code = run_cli(["verify", "all", "--delta", "0.5",
                        "--samples", "200"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        fields = {ln.split("\t")[0]: ln.split("\t")[1:] for ln in lines}
        assert list(fields) == list(cli.SUITES) + ["verify"]
        assert all(status == "pass" for status, _ in fields.values())
        assert "cases=7" in fields["covering"][1].split()

    def test_covering_at_large_delta(self, capsys):
        code = run_cli(["verify", "covering", "--delta", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("covering\tpass\tfailures=0 cases=7 ")

    def test_unknown_suite(self):
        assert run_cli(["verify", "nosuch"]) == 2


def write_two_cell_mesh(path, delta=0.5, same_phase=False):
    wells = mg.make_wells(delta)
    g1 = wells.F0
    g2 = wells.F0 if same_phase else wells.F0inv
    tris = [([0.0, 0.0, 1.0, 0.0, 0.0, 1.0], g1),
            ([1.0, 0.0, 1.0, 1.0, 0.0, 1.0], g2)]
    lines = [f"# delta {delta}"]
    for i, (v, g) in enumerate(tris):
        row = [str(i), "-1", "2", "0"]
        row += ["%.17g" % x for x in v]
        row += ["%.17g" % x for x in np.asarray(g).ravel()]
        row += ["0", "0"]
        lines.append(" ".join(row))
    path.write_text("\n".join(lines) + "\n")


class TestDim:
    def test_straight_interface_slope_one(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.txt"
        write_two_cell_mesh(mesh)
        code = run_cli(["dim", str(mesh)])
        out = capsys.readouterr().out
        assert code == 0
        slope = float(out.strip().splitlines()[-1].split(":")[1])
        assert abs(slope - 1.0) <= 0.1
        counts = [int(ln.split("\t")[1])
                  for ln in out.strip().splitlines()[1:-1]]
        assert counts == sorted(counts, reverse=True)   # finer eps first

    def test_run_output_feeds_dim(self, run_dir, capsys):
        code = run_cli(["dim", str(run_dir / "mesh.txt"),
                        "--pmin", "4", "--pmax", "8"])
        out = capsys.readouterr().out
        assert code == 0
        slope = float(out.strip().splitlines()[-1].split(":")[1])
        assert 0.9 < slope < 2.0

    def test_empty_interface(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.txt"
        write_two_cell_mesh(mesh, same_phase=True)
        code = run_cli(["dim", str(mesh)])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("pmin, pmax", [(6, 5), (5, 5)])
    def test_fewer_than_two_scales(self, tmp_path, capsys, pmin, pmax):
        mesh = tmp_path / "mesh.txt"
        write_two_cell_mesh(mesh)
        code = run_cli(["dim", str(mesh), "--pmin", str(pmin),
                        "--pmax", str(pmax)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "slope" not in captured.out

    def test_unreadable_mesh(self, tmp_path):
        assert run_cli(["dim", str(tmp_path / "ghost.txt")]) == 1

    def test_missing_delta_header(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.txt"
        write_two_cell_mesh(mesh)
        text = "\n".join(ln for ln in mesh.read_text().splitlines()
                         if not ln.startswith("#"))
        mesh.write_text(text + "\n")
        assert run_cli(["dim", str(mesh)]) == 1
        assert run_cli(["dim", str(mesh), "--delta", "0.5"]) == 0

    @pytest.mark.parametrize("short", ["last line", "every line"])
    def test_line_without_16_fields(self, tmp_path, capsys, short):
        mesh = tmp_path / "mesh.txt"
        write_two_cell_mesh(mesh)
        lines = mesh.read_text().splitlines()
        for i in ([-1] if short == "last line" else [1, 2]):
            lines[i] = lines[i].rsplit(" ", 1)[0]
        mesh.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            cli.read_mesh(str(mesh))
        assert run_cli(["dim", str(mesh)]) == 1
        assert "cannot read mesh" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["# delta 0.5\n", "# delta 0.5\n\n  \n",
                                      ""])
    def test_file_without_cells(self, tmp_path, capsys, text):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(text)
        with pytest.raises(ValueError, match="no cells"):
            cli.read_mesh(str(mesh))
        assert run_cli(["dim", str(mesh)]) == 1
        assert "no cells" in capsys.readouterr().err


class TestThreadEnv:
    def test_thread_cap_recorded(self, tmp_path):
        env = dict(os.environ, TWOWELL_THREADS="2")
        env.pop("OMP_NUM_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "twowell.cli", "run", "--steps", "1",
             "--budget", "15000", "--outdir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "threads: 2" in (tmp_path / "report.txt").read_text()
