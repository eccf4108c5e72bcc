"""CLI smoke tests (argument parsing and end-to-end output)."""

import pytest

from repro.cli import build_parser, main
from repro.graph.io import save_edge_list
from repro.examples_graphs import figure2_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig2.txt"
    save_edge_list(figure2_graph(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_decompose_defaults(self):
        args = build_parser().parse_args(["decompose", "g.txt"])
        assert (args.r, args.s, args.algorithm) == (1, 2, "fnd")

    def test_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "not_a_dataset"])


class TestCommands:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices : 11" in out
        assert "triangles: 8" in out

    def test_decompose_with_tree(self, graph_file, capsys):
        assert main(["decompose", graph_file, "--algorithm", "lcps",
                     "--tree"]) == 0
        out = capsys.readouterr().out
        assert "max lambda : 3" in out
        assert "k=3" in out

    def test_decompose_truss(self, graph_file, capsys):
        assert main(["decompose", graph_file, "--r", "2", "--s", "3"]) == 0
        assert "nuclei" in capsys.readouterr().out

    def test_workers_shown_and_validated_on_any_backend(self, graph_file,
                                                        capsys):
        assert main(["decompose", graph_file, "--r", "2", "--s", "3",
                     "--backend", "csr", "--workers", "2"]) == 0
        assert "backend=csr (2 workers)" in capsys.readouterr().out
        assert main(["decompose", graph_file, "--workers", "2"]) == 0
        assert "backend=object (auto) (2 workers)" in capsys.readouterr().out
        assert main(["decompose", graph_file, "--backend", "object",
                     "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_decompose_hypo(self, graph_file, capsys):
        assert main(["decompose", graph_file, "--algorithm", "hypo"]) == 0
        assert "builds none" in capsys.readouterr().out

    def test_dataset_command(self, capsys):
        assert main(["dataset", "uk2005", "--size", "tiny"]) == 0
        assert "max lambda" in capsys.readouterr().out

    def test_densest(self, tmp_path, capsys):
        from repro.graph import generators
        path = tmp_path / "g.txt"
        save_edge_list(generators.planted_cliques(2, 6, seed=1), path)
        assert main(["densest", str(path), "--top", "3"]) == 0
        assert "density=" in capsys.readouterr().out

    def test_export_json(self, graph_file, tmp_path, capsys):
        out = tmp_path / "h.json"
        assert main(["export", graph_file, str(out)]) == 0
        from repro.export import load_hierarchy
        load_hierarchy(out).validate()

    def test_export_dot(self, graph_file, tmp_path):
        out = tmp_path / "h.dot"
        assert main(["export", graph_file, str(out), "--format", "dot"]) == 0
        assert out.read_text().startswith("digraph")

    def test_export_skeleton_dot(self, graph_file, tmp_path):
        out = tmp_path / "s.dot"
        assert main(["export", graph_file, str(out),
                     "--format", "skeleton-dot"]) == 0
        assert "digraph" in out.read_text()

    def test_missing_file_friendly_error(self, capsys):
        assert main(["stats", "/definitely/not/here.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("only-one-token\n")
        assert main(["stats", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestQueryCommand:
    def test_build_and_query(self, graph_file, capsys):
        assert main(["query", graph_file, "--r", "2", "--s", "3",
                     "--vertices", "0,8", "--k", "1", "--cells"]) == 0
        out = capsys.readouterr().out
        assert "built  :" in out
        assert "vertex 0:" in out and "vertex 8:" in out

    def test_save_then_serve(self, graph_file, tmp_path, capsys):
        index_path = tmp_path / "fig2.npz"
        assert main(["query", graph_file, "--r", "1", "--s", "2",
                     "--save-index", str(index_path)]) == 0
        assert index_path.exists()
        capsys.readouterr()
        assert main(["query", str(index_path), "--vertices", "0,1",
                     "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "loaded :" in out
        assert "communities at k=2" in out

    def test_profile_from_persisted_index(self, graph_file, tmp_path,
                                          capsys):
        index_path = tmp_path / "fig2.npz"
        assert main(["query", graph_file, "--save-index",
                     str(index_path)]) == 0
        capsys.readouterr()
        assert main(["query", str(index_path), "--vertices", "0",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "vertex 0:" in out
        assert "density" in out

    def test_bad_vertices_friendly_error(self, graph_file, capsys):
        assert main(["query", graph_file, "--vertices", "zero"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_index_file_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip")
        assert main(["query", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestVariantCommands:
    @pytest.fixture
    def values_file(self, tmp_path):
        def write(values):
            path = tmp_path / "values.txt"
            path.write_text("".join(f"{v}\n" for v in values))
            return str(path)
        return write

    def test_weighted(self, graph_file, values_file, capsys):
        weights = values_file([1.5] * figure2_graph().m)
        assert main(["decompose", graph_file, "--variant", "weighted",
                     "--edge-values", weights]) == 0
        out = capsys.readouterr().out
        assert "variant    : weighted" in out
        assert "max lambda" in out

    def test_uncertain(self, graph_file, values_file, capsys):
        probs = values_file([0.9] * figure2_graph().m)
        assert main(["decompose", graph_file, "--variant", "uncertain",
                     "--edge-values", probs, "--eta", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "variant    : uncertain" in out
        assert "eta        : 0.7" in out

    def test_weighted_without_values_is_friendly(self, graph_file, capsys):
        assert main(["decompose", graph_file,
                     "--variant", "weighted"]) == 2
        assert "--edge-values" in capsys.readouterr().err

    def test_directed(self, tmp_path, capsys):
        path = tmp_path / "arcs.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main(["decompose", str(path), "--variant", "directed"]) == 0
        out = capsys.readouterr().out
        assert "max in-core : 1" in out
        assert "max out-core: 1" in out

    def test_temporal(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("0 1 0\n0 1 1\n1 2 0\n0 2 0\n")
        assert main(["decompose", str(path), "--variant", "temporal",
                     "--h", "2"]) == 0
        out = capsys.readouterr().out
        assert "h          : 2" in out
        assert "max lambda : 1" in out

    def test_temporal_profile(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("0 1 0\n0 1 1\n1 2 0\n0 2 0\n")
        assert main(["decompose", str(path),
                     "--variant", "temporal-profile"]) == 0
        out = capsys.readouterr().out
        assert "h=1: max lambda 2" in out
        assert "h=2: max lambda 1" in out

    def test_variant_backend_object(self, graph_file, values_file, capsys):
        weights = values_file([1.0] * figure2_graph().m)
        assert main(["decompose", graph_file, "--variant", "weighted",
                     "--edge-values", weights, "--backend", "object"]) == 0
        assert "(backend object)" in capsys.readouterr().out
